package tensor

import (
	"fmt"
	"sync"
)

// GEMM kernels.
//
// The three products the training loop needs (A·B, Aᵀ·B, A·Bᵀ) are
// cache-blocked, register-tiled kernels over raw float32 slices, with
// Tensor wrappers that validate shapes. The loops in this file define
// the exact numerics contract (numerics.go). Two invariants govern
// every kernel in this file:
//
//  1. Bit-identity. For each output element, the sequence of
//     floating-point operations — every product and every sum rounded
//     separately, in the reference association, with the reference's
//     zero skips — is exactly the sequence the reference kernels
//     (matMulRows, matMulTARef, matMulTBRows) perform. Blocking and
//     register tiling only reorder work across *different* output
//     elements, never the accumulation order within one, so results
//     are bitwise equal to the reference at any tile size and worker
//     count. Each product is wrapped in float32(): the Go spec lets a
//     compiler fuse x*y + z into one rounding unless the product is
//     converted explicitly, and gc does so on arm64. The A·B tiles
//     and the Aᵀ·B shards also run as exact-order AVX kernels
//     (gemm_exact.go) wherever the CPU has AVX, with the same bits. The
//     oracle tests in
//     matmul_oracle_test.go, where the reference kernels live, pin
//     all of this.
//
//  2. Zero steady-state allocation. Packing buffers come from a
//     sync.Pool of reusable panels; warm calls allocate nothing.

// matMulShardFlops is the minimum m·k·n product above which the GEMM
// kernels shard output rows across goroutines; below it the goroutine
// fan-out costs more than it saves. Sharding never changes results:
// each output row is computed by the same serial kernel either way.
const matMulShardFlops = 1 << 16

// gemmJTile is the column-panel width of the blocked kernels: B (and
// the output rows) are processed in tiles of at most gemmJTile columns
// so the four panel rows a quad touches stay resident in L1 across the
// register-tiled row passes. When n <= gemmJTile the natural row-major
// layout of B already is the single panel and packing is skipped.
const gemmJTile = 256

// panelBuf is a pooled packing buffer with the row-offset table of
// the panel its tiles read. The pool stores pointers so steady-state
// Get/Put pairs do not allocate.
type panelBuf struct {
	f    []float32
	offs []int
	keep []uint32
}

var panelPool = sync.Pool{New: func() any { return new(panelBuf) }}

// getPanel returns a pooled buffer with at least n usable elements.
func getPanel(n int) *panelBuf {
	p := panelPool.Get().(*panelBuf)
	if cap(p.f) < n {
		p.f = make([]float32, n)
	}
	p.f = p.f[:n]
	return p
}

// table returns the buffer's row-offset table resized to k entries,
// with unspecified contents.
func (p *panelBuf) table(k int) []int {
	if cap(p.offs) < k {
		p.offs = make([]int, k)
	}
	p.offs = p.offs[:k]
	return p.offs
}

// mask returns the buffer's column mask resized to n entries, with
// unspecified contents.
func (p *panelBuf) mask(n int) []uint32 {
	if cap(p.keep) < n {
		p.keep = make([]uint32, n)
	}
	p.keep = p.keep[:n]
	return p.keep
}

// strideTable returns the buffer's table for a panel whose rows lie
// stride apart: row p at offset p·stride.
func (p *panelBuf) strideTable(k, stride int) []int {
	offs := p.table(k)
	for i := range offs {
		offs[i] = i * stride
	}
	return offs
}

// packB lays B (k×n) out as contiguous column panels of width
// gemmJTile: the tile starting at column j0 occupies pb[j0*k:] with
// row p of the tile at pb[j0*k+p*jw : j0*k+(p+1)*jw] (jw = tile
// width). Packing copies values only — it cannot change results. When
// n <= gemmJTile, B itself already has the panel layout and is
// returned directly with a nil buffer.
func packB(b []float32, k, n int) ([]float32, *panelBuf) {
	if n <= gemmJTile {
		return b, nil
	}
	pb := getPanel(k * n)
	for j0 := 0; j0 < n; j0 += gemmJTile {
		jw := n - j0
		if jw > gemmJTile {
			jw = gemmJTile
		}
		base := j0 * k
		for p := 0; p < k; p++ {
			copy(pb.f[base+p*jw:base+p*jw+jw], b[p*n+j0:p*n+j0+jw])
		}
	}
	return pb.f, pb
}

// MatMulInto computes out = A·B, reusing out's storage. out must be
// m×n, A m×k, B k×n. B is packed into cache-resident column panels
// (pooled, allocation-free when warm) and the output is walked in 2-row
// register tiles; above matMulShardFlops the output rows are sharded
// across Workers() goroutines. Both transformations keep the per-element
// accumulation order of the serial reference kernel, so results are
// bit-identical at any worker count.
func MatMulInto(out, a, b *Tensor) {
	if len(a.shape) != 2 || len(b.shape) != 2 || len(out.shape) != 2 {
		panic("tensor: MatMul requires rank-2 tensors")
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 || out.shape[0] != m || out.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %v · %v -> %v", a.shape, b.shape, out.shape))
	}
	Gemm(out.data, a.data, b.data, m, k, n)
}

// Gemm computes dst = A·B over raw row-major slices: dst m×n, a m×k,
// b k×n. It is the allocation-free entry point layers use when the
// operands are sub-slices of larger batch buffers (see nn.Conv2D).
func Gemm(dst, a, b []float32, m, k, n int) {
	if m == 0 || n == 0 {
		return
	}
	pb, buf := packB(b, k, n)
	if m >= 2 && m*k*n >= matMulShardFlops && Workers() > 1 {
		ParallelFor(m, func(_, lo, hi int) {
			gemmRows(dst, a, pb, k, n, lo, hi)
		})
	} else {
		gemmRows(dst, a, pb, k, n, 0, m)
	}
	if buf != nil {
		panelPool.Put(buf)
	}
}

// gemmRows computes output rows [lo, hi) of dst = A·B against a packed
// B panel, in 2-row register tiles per column panel.
func gemmRows(od, ad, pb []float32, k, n, lo, hi int) {
	tb := getPanel(0)
	for j0 := 0; j0 < n; j0 += gemmJTile {
		jw := n - j0
		if jw > gemmJTile {
			jw = gemmJTile
		}
		panel := pb[j0*k:]
		offs := tb.strideTable(k, jw)
		i := lo
		for ; i+2 <= hi; i += 2 {
			exactTile2(od[i*n+j0:i*n+j0+jw], od[(i+1)*n+j0:(i+1)*n+j0+jw],
				ad[i*k:i*k+k], ad[(i+1)*k:(i+1)*k+k], panel, offs, jw)
		}
		for ; i < hi; i++ {
			exactTile1(od[i*n+j0:i*n+j0+jw], ad[i*k:i*k+k], panel, offs, jw)
		}
	}
	panelPool.Put(tb)
}

// exactTile2 runs the gemmTile2 update on the exact-order AVX kernel
// where the CPU has AVX, and as the Go loop otherwise. Both give the
// same bits; the oracle tests pin the kernel to the loop.
func exactTile2(o0, o1, a0, a1, pb []float32, offs []int, jw int) {
	if avxSupported {
		avxTile2(o0, o1, a0, a1, pb, offs, jw, true)
		return
	}
	gemmTile2(o0, o1, a0, a1, pb, offs, jw)
}

// exactTile1 is exactTile2 for one row: gemmTile1 or its AVX kernel.
func exactTile1(orow, arow, pb []float32, offs []int, jw int) {
	if avxSupported {
		avxTile1(orow, arow, pb, offs, jw, true)
		return
	}
	gemmTile1(orow, arow, pb, offs, jw)
}

// gemmTile2 computes the jw-wide output segments o0, o1 of two rows
// with coefficient rows a0, a1 (len k each) against a B panel whose
// row p lives at pb[offs[p] : +jw]. Rows may overlap: a packed panel's
// rows lie jw apart (offs[p] = p·jw), a zero-copy view into a wider
// matrix's lie its row length apart, and a conv's taps are runs of
// zero-bordered phase rows, one element apart within a kernel row
// (convRowUnits). Every table but a strided conv's ascends; that one
// visits the phase planes of each channel in tap order. The two rows
// share each loaded B quad; every row's own update statement and
// skip-zero check are those of the reference kernel, so each output
// element sees the identical operation sequence. Two rows (8 A
// coefficients + 4 shared B values) is the widest tile whose live
// values fit amd64's 16 vector registers — a 4-row tile spills and
// measures slower than the reference.
func gemmTile2(o0, o1, a0, a1, pb []float32, offs []int, jw int) {
	for x := range o0 {
		o0[x] = 0
	}
	for x := range o1 {
		o1[x] = 0
	}
	k := len(a0)
	p := 0
	for ; p+4 <= k; p += 4 {
		w00, w01, w02, w03 := a0[p], a0[p+1], a0[p+2], a0[p+3]
		w10, w11, w12, w13 := a1[p], a1[p+1], a1[p+2], a1[p+3]
		z0 := w00 == 0 && w01 == 0 && w02 == 0 && w03 == 0
		z1 := w10 == 0 && w11 == 0 && w12 == 0 && w13 == 0
		if z0 && z1 {
			continue
		}
		b0 := pb[offs[p] : offs[p]+jw]
		b1 := pb[offs[p+1] : offs[p+1]+jw]
		b2 := pb[offs[p+2] : offs[p+2]+jw]
		b3 := pb[offs[p+3] : offs[p+3]+jw]
		if !z0 && !z1 {
			for x := 0; x < jw; x++ {
				bv0, bv1, bv2, bv3 := b0[x], b1[x], b2[x], b3[x]
				o0[x] += float32(w00*bv0) + float32(w01*bv1) + float32(w02*bv2) + float32(w03*bv3)
				o1[x] += float32(w10*bv0) + float32(w11*bv1) + float32(w12*bv2) + float32(w13*bv3)
			}
		} else if !z0 {
			// Mixed skip pattern: per-row updates so the skipped row
			// stays untouched, exactly as the reference does.
			for x := range o0 {
				o0[x] += float32(w00*b0[x]) + float32(w01*b1[x]) + float32(w02*b2[x]) + float32(w03*b3[x])
			}
		} else {
			for x := range o1 {
				o1[x] += float32(w10*b0[x]) + float32(w11*b1[x]) + float32(w12*b2[x]) + float32(w13*b3[x])
			}
		}
	}
	for ; p < k; p++ {
		brow := pb[offs[p] : offs[p]+jw]
		if av := a0[p]; av != 0 {
			for x := range o0 {
				o0[x] += float32(av * brow[x])
			}
		}
		if av := a1[p]; av != 0 {
			for x := range o1 {
				o1[x] += float32(av * brow[x])
			}
		}
	}
}

// gemmTile1 is the single-row remainder of gemmTile2 — the reference
// kernel body restricted to one column panel. See gemmTile2 for the
// row-offset panel addressing.
func gemmTile1(orow, arow, pb []float32, offs []int, jw int) {
	for x := range orow {
		orow[x] = 0
	}
	k := len(arow)
	p := 0
	for ; p+4 <= k; p += 4 {
		a0, a1, a2, a3 := arow[p], arow[p+1], arow[p+2], arow[p+3]
		if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
			continue
		}
		b0 := pb[offs[p] : offs[p]+jw]
		b1 := pb[offs[p+1] : offs[p+1]+jw]
		b2 := pb[offs[p+2] : offs[p+2]+jw]
		b3 := pb[offs[p+3] : offs[p+3]+jw]
		for x := range orow {
			orow[x] += float32(a0*b0[x]) + float32(a1*b1[x]) + float32(a2*b2[x]) + float32(a3*b3[x])
		}
	}
	for ; p < k; p++ {
		av := arow[p]
		if av == 0 {
			continue
		}
		brow := pb[offs[p] : offs[p]+jw]
		for x := range orow {
			orow[x] += float32(av * brow[x])
		}
	}
}

// MatMulTAInto computes out = Aᵀ·B into out (m×n), A (k×m), B (k×n).
// Above matMulShardFlops the output rows (A's columns) are sharded
// across Workers() goroutines; each shard accumulates rank-1 updates
// in ascending p, exactly as the serial reference does, so results are
// bit-identical at any worker count.
func MatMulTAInto(out, a, b *Tensor) {
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 || out.shape[0] != m || out.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTA shape mismatch %v ᵀ· %v -> %v", a.shape, b.shape, out.shape))
	}
	GemmTA(out.data, a.data, b.data, k, m, n)
}

// GemmTA computes dst = Aᵀ·B over raw row-major slices: dst m×n,
// a k×m, b k×n.
func GemmTA(dst, a, b []float32, k, m, n int) {
	if m == 0 || n == 0 {
		return
	}
	if m >= 2 && m*k*n >= matMulShardFlops && Workers() > 1 {
		ParallelFor(m, func(_, lo, hi int) {
			exactTAShard(dst, a, b, k, m, n, lo, hi)
		})
		return
	}
	exactTAShard(dst, a, b, k, m, n, 0, m)
}

// exactTAShard runs gemmTAShard's update on the register-resident AVX
// kernel where the CPU has AVX, and as the Go loop otherwise. Both
// give the same bits; the kernel tests pin one to the other.
func exactTAShard(od, ad, bd []float32, k, m, n, lo, hi int) {
	if avxSupported {
		avxTAShard(od, ad, bd, k, m, n, lo, hi)
		return
	}
	gemmTAShard(od, ad, bd, k, m, n, lo, hi)
}

// gemmTAShard computes output rows [lo, hi) of dst = Aᵀ·B in Go: the
// exact Aᵀ·B of builds and CPUs without AVX, and the loop the kernel
// tests pin avxTAShard to. The rank-1 updates run p-outer in ascending
// order — the per-element accumulation order of the reference kernel —
// while the j dimension is tiled so the output block being accumulated
// stays cache-resident across all k updates, and row pairs share each
// loaded B value. When the shard is a strict column subrange of A
// (parallel path), that subrange is packed into a contiguous pooled
// k×iw panel reused across the column tiles.
func gemmTAShard(od, ad, bd []float32, k, m, n, lo, hi int) {
	for x := lo * n; x < hi*n; x++ {
		od[x] = 0
	}
	iw := hi - lo
	// ap/astride/aoff describe the shard's coefficient layout: the full
	// matrix already is its own panel when the shard covers all of A.
	ap, astride, aoff := ad, m, lo
	var buf *panelBuf
	if iw < m {
		buf = getPanel(k * iw)
		for p := 0; p < k; p++ {
			copy(buf.f[p*iw:p*iw+iw], ad[p*m+lo:p*m+hi])
		}
		ap, astride, aoff = buf.f, iw, 0
	}
	for j0 := 0; j0 < n; j0 += gemmJTile {
		jw := n - j0
		if jw > gemmJTile {
			jw = gemmJTile
		}
		for p := 0; p < k; p++ {
			arow := ap[p*astride+aoff : p*astride+aoff+iw]
			brow := bd[p*n+j0 : p*n+j0+jw]
			ii := 0
			for ; ii+2 <= iw; ii += 2 {
				av0, av1 := arow[ii], arow[ii+1]
				if av0 == 0 && av1 == 0 {
					continue
				}
				ob := (lo + ii) * n
				o0 := od[ob+j0 : ob+j0+jw]
				o1 := od[ob+n+j0 : ob+n+j0+jw]
				if av0 != 0 && av1 != 0 {
					for x, bv := range brow {
						o0[x] += float32(av0 * bv)
						o1[x] += float32(av1 * bv)
					}
				} else if av0 != 0 {
					for x, bv := range brow {
						o0[x] += float32(av0 * bv)
					}
				} else {
					for x, bv := range brow {
						o1[x] += float32(av1 * bv)
					}
				}
			}
			if ii < iw {
				if av := arow[ii]; av != 0 {
					ob := (lo + ii) * n
					orow := od[ob+j0 : ob+j0+jw]
					for x, bv := range brow {
						orow[x] += float32(av * bv)
					}
				}
			}
		}
	}
	if buf != nil {
		panelPool.Put(buf)
	}
}

// MatMulTBInto computes out = A·Bᵀ into out (m×n), A (m×k), B (n×k).
// Output rows are sharded across Workers() goroutines above
// matMulShardFlops; each row is computed in 1×4 register tiles whose
// four independent dot products share the A loads. Per-accumulator
// operation order matches the serial reference, so results are
// bit-identical at any worker count.
func MatMulTBInto(out, a, b *Tensor) {
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 || out.shape[0] != m || out.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTB shape mismatch %v · %v ᵀ-> %v", a.shape, b.shape, out.shape))
	}
	GemmTB(out.data, a.data, b.data, m, k, n)
}

// GemmTB computes dst = A·Bᵀ over raw row-major slices: dst m×n,
// a m×k, b n×k. B's rows are the contiguous panels already — A·Bᵀ
// needs no repacking.
func GemmTB(dst, a, b []float32, m, k, n int) {
	if m == 0 || n == 0 {
		return
	}
	if m >= 2 && m*k*n >= matMulShardFlops && Workers() > 1 {
		ParallelFor(m, func(_, lo, hi int) {
			gemmTBRows(dst, a, b, k, n, lo, hi)
		})
		return
	}
	gemmTBRows(dst, a, b, k, n, 0, m)
}

// gemmTBJBlock is the B-row block height of the A·Bᵀ kernels: output
// columns are processed in blocks of at most gemmTBJBlock B rows so
// the block (32 rows × k floats — 32 KiB at k=256) stays L1-resident
// while every output row in the shard consumes it, instead of
// streaming all n·k of B past the cache once per output row. Blocking
// reorders work across output elements only; each element's dot
// product is unchanged.
const gemmTBJBlock = 32

// gemmTBRows computes output rows [lo, hi) of dst = A·Bᵀ in 1×4
// register tiles within B-row blocks of gemmTBJBlock: four j
// accumulators share each A quad load. Each accumulator's operation
// sequence is exactly the reference kernel's.
func gemmTBRows(od, ad, bd []float32, k, n, lo, hi int) {
	for j0 := 0; j0 < n; j0 += gemmTBJBlock {
		jb := n - j0
		if jb > gemmTBJBlock {
			jb = gemmTBJBlock
		}
		gemmTBBlock(od, ad, bd, k, n, lo, hi, j0, j0+jb)
	}
}

// gemmTBBlock computes the output block rows [lo, hi) × columns
// [j0, j1) of dst = A·Bᵀ.
func gemmTBBlock(od, ad, bd []float32, k, n, lo, hi, j0, j1 int) {
	for i := lo; i < hi; i++ {
		arow := ad[i*k : i*k+k]
		orow := od[i*n : i*n+n]
		j := j0
		for ; j+4 <= j1; j += 4 {
			b0 := bd[j*k : j*k+k]
			b1 := bd[(j+1)*k : (j+1)*k+k]
			b2 := bd[(j+2)*k : (j+2)*k+k]
			b3 := bd[(j+3)*k : (j+3)*k+k]
			var s0, s1, s2, s3 float32
			p := 0
			for ; p+4 <= k; p += 4 {
				a0, a1, a2, a3 := arow[p], arow[p+1], arow[p+2], arow[p+3]
				s0 += float32(a0*b0[p]) + float32(a1*b0[p+1]) + float32(a2*b0[p+2]) + float32(a3*b0[p+3])
				s1 += float32(a0*b1[p]) + float32(a1*b1[p+1]) + float32(a2*b1[p+2]) + float32(a3*b1[p+3])
				s2 += float32(a0*b2[p]) + float32(a1*b2[p+1]) + float32(a2*b2[p+2]) + float32(a3*b2[p+3])
				s3 += float32(a0*b3[p]) + float32(a1*b3[p+1]) + float32(a2*b3[p+2]) + float32(a3*b3[p+3])
			}
			for ; p < k; p++ {
				av := arow[p]
				s0 += float32(av * b0[p])
				s1 += float32(av * b1[p])
				s2 += float32(av * b2[p])
				s3 += float32(av * b3[p])
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
		}
		for ; j < j1; j++ {
			brow := bd[j*k : j*k+k]
			var s float32
			p := 0
			for ; p+4 <= k; p += 4 {
				s += float32(arow[p]*brow[p]) + float32(arow[p+1]*brow[p+1]) +
					float32(arow[p+2]*brow[p+2]) + float32(arow[p+3]*brow[p+3])
			}
			for ; p < k; p++ {
				s += float32(arow[p] * brow[p])
			}
			orow[j] = s
		}
	}
}
