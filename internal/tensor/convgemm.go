package tensor

import "math"

// Implicit-GEMM convolution kernels.
//
// The classic lowering (nn.Conv2D before this file existed) pays a
// full write+read of a materialized (C·kh·kw) × (outH·outW) column
// matrix per sample and then runs N tiny per-sample GEMMs that are too
// small to engage the panel blocking in matmul.go. The kernels here
// fuse the lowering into the GEMM instead:
//
//   - Forward treats the whole NCHW batch as ONE GEMM of shape
//     outC × (C·kh·kw) × (N·outH·outW), run panel by panel through the
//     exact tiles (exactTile2/exactTile1) — the standalone column
//     matrix is never materialized, and each panel is consumed while
//     still cache-hot. A panel is a block of output rows whose tap rows
//     the tiles read in place, through a table of row offsets, from
//     batch-row phase rows: a row of a channel holds that row of every
//     sample, so the batch runs as one wide image per channel and a
//     panel spans many samples, and a conv of stride 2 or more splits
//     the rows by row and column parity (convForwardRows). A stride-1
//     conv reads a batch-row plane (Plane) of its own pad where it lies;
//     any other input, a dense batch included, is first copied into
//     pooled phase rows, one group of samples at a time for a dense
//     batch. Work parallelizes across panels or, for a dense batch,
//     across groups of samples.
//     At inference an optional epilogue (ConvEpilogue)
//     applies batch norm, a residual and a ReLU to each output run as
//     it is stored, into a dense batch or into the interior of the
//     plane the next conv reads; batch norm's training forward runs
//     the same epilogue over the conv's output (ConvEpilogue.Apply).
//   - Backward streams per sample: dX stages Wᵀ·dY in a pooled scratch
//     block, computed by the exact GemmTA's register-resident kernel,
//     and a fused col2im consumer scatters it row by row into the
//     image (no per-layer dcol buffer is retained). With AVX, dW runs
//     on the same A·B tiles as the forward, with their zero skips off,
//     over the sample's patch-major panel (one receptive field per
//     row); without AVX its dot loops read column rows generated on
//     the fly. Stride-1 convolutions build the panel from, and scatter
//     dX into, zero-bordered planes, with no per-element bounds test
//     (ConvGemmBackward).
//
// Bit-identity contract (§6/§7 of DESIGN.md): every output element's
// floating-point accumulation order is exactly that of the
// Im2Col+Gemm / GemmTB / GemmTA+Col2Im composition it replaced.
// Batching, panel regrouping and the extended panels only change which
// elements are computed together, never the operands or the operation
// sequence of one element; the epilogue runs the
// operation sequence of the separate layers it replaces.
// convgemm_test.go pins this against the materialized composition as
// the bitwise oracle across a shape grid, a fuzz target, and several
// worker counts.

// Plane is an n×c×h×w batch in one of two layouts:
//
//   - Dense (Span 0, Pad 0): the NCHW batch. Element (i, ch, y, x) is
//     Data[((i·C + ch)·H + y)·W + x].
//   - Batch-row (Span ≥ N): each channel's h×w image sits inside a
//     border of Pad values on every side, hp = H+2·Pad rows, and each
//     row of a channel holds that row of Span samples, W+Pad columns
//     apart, so that the Pad columns between two samples are the right
//     border of one and the left border of the next. Element (i, ch, y,
//     x) is Data[(ch·hp + y+Pad)·ws + Pad + i·(W+Pad) + x], with ws =
//     Span·(W+Pad) + Pad. The batch is the first N samples of each row,
//     so one buffer serves every batch up to Span with its borders and
//     gaps where they were; a conv reads each channel as one image of
//     N·(W+Pad) − Pad columns.
//
// A convolution reads a batch-row plane whose border is its own pad in
// place, which needs the border, and the gaps between samples, to hold
// +0. ConvPlaneForward stores only into a plane's interior and, in a
// batch-row plane, +0 into the gaps between the samples it stores, so
// they stay +0. A plane read in place should be Len long: the tiles run
// the last block of the last row up to 7 values past it, into columns
// that are dropped.
type Plane struct {
	Data       []float32
	N, C, H, W int
	Pad        int
	Span       int
}

// Len returns the length of a buffer for the plane, including the 7
// values past its last row.
func (p Plane) Len() int {
	return p.bodyLen() + 7
}

// Offset returns the index of element (i, ch, y, x) in p.Data.
func (p Plane) Offset(i, ch, y, x int) int {
	return i*p.sampleStride() + ch*p.chanStride() + (y+p.Pad)*p.rowLen() + x + p.Pad
}

// bodyLen returns the number of values the plane's samples span.
func (p Plane) bodyLen() int {
	if p.Span == 0 {
		return p.N * p.sampleStride()
	}
	return p.C * p.chanStride()
}

// rowLen returns the distance between two rows of a channel.
func (p Plane) rowLen() int {
	if p.Span == 0 {
		return p.W
	}
	return p.Span*(p.W+p.Pad) + p.Pad
}

// chanStride returns the distance between an element of one channel
// and the same element of the next.
func (p Plane) chanStride() int {
	return (p.H + 2*p.Pad) * p.rowLen()
}

// sampleStride returns the distance between an element of one sample
// and the same element of the next.
func (p Plane) sampleStride() int {
	if p.Span == 0 {
		return p.C * p.H * p.W
	}
	return p.W + p.Pad
}

// check panics unless p is in one of the two layouts and p.Data holds
// its N samples.
func (p Plane) check(what string) {
	if p.Span == 0 && p.Pad != 0 {
		panic("tensor: ConvPlaneForward " + what + " has a border but no span")
	}
	if p.Span != 0 && p.Span < p.N {
		panic("tensor: ConvPlaneForward " + what + " holds fewer samples per row than the batch")
	}
	if len(p.Data) < p.bodyLen() {
		panic("tensor: ConvPlaneForward " + what + " too small")
	}
}

// ConvGemmForward computes the NCHW convolution output
// dst = W · im2col(src) for a whole batch as one implicit GEMM of
// shape outC × (c·kh·kw) × (n·outH·outW). dst is n×outC×outH×outW,
// wd is outC×(c·kh·kw) row-major, src is n×c×h×w. Above
// matMulShardFlops the work is sharded across Workers() goroutines.
// Results are bit-identical to the per-sample Im2Col+Gemm composition
// at any worker count. It is ConvPlaneForward on dense planes.
func ConvGemmForward(dst, wd, src []float32, n, c, h, w, outC, kh, kw, stride, pad int) {
	ConvGemmForwardEpilogue(dst, wd, src, n, c, h, w, outC, kh, kw, stride, pad, nil)
}

// ConvEpilogue is the tail of a conv followed by batch norm, an
// optional residual add and a ReLU: output element v of channel oc is
// stored as
//
//	ReLU((((v − Mean[oc])·Mul1[oc])·Mul2[oc] + Beta[oc]) + r)
//
// with every operation rounded on its own, in this order: the
// operation sequence of nn.BatchNorm2D's forward, then
// Tensor.AddInPlace, then nn.ReLU, so that it stores the bits those
// layers produce one after another. At inference Mul1 is γ and Mul2
// the running 1/√(var+ε); in training (Apply) Mul1 is the batch's
// 1/√(var+ε) and Mul2 is γ. The ReLU selects v when v > 0 and +0
// otherwise (-0 and NaN included); NoReLU leaves it out.
type ConvEpilogue struct {
	Mean, Mul1, Mul2, Beta []float32 // one per output channel
	// Residual, when its Data is not nil, holds r: at ConvPlaneForward a
	// plane of dst's shape in either layout, which may be dst itself
	// (each element is read before it is stored); at Apply a dense
	// batch in src's layout.
	Residual Plane
	NoReLU   bool
}

// ConvGemmForwardEpilogue is ConvGemmForward whose output runs pass
// through ep before they are stored, while still cache-hot; a nil ep
// stores the convolution itself. ep.Mean, Mul1, Mul2 and Beta hold
// outC values.
func ConvGemmForwardEpilogue(dst, wd, src []float32, n, c, h, w, outC, kh, kw, stride, pad int, ep *ConvEpilogue) {
	outH := ConvOutSize(h, kh, stride, pad)
	outW := ConvOutSize(w, kw, stride, pad)
	ConvPlaneForward(Plane{Data: dst, N: n, C: outC, H: outH, W: outW}, wd,
		Plane{Data: src, N: n, C: c, H: h, W: w}, kh, kw, stride, pad, ep)
}

// ConvPlaneForward is ConvGemmForwardEpilogue from the plane src into
// the plane dst, whose shape must be the conv's output's; only dst's
// interior is written, and +0 into the gap columns between the samples
// of a batch-row dst. The batch runs as one wide image per channel on
// batch-row phase rows (convForwardRows): a stride-1 conv reads a
// batch-row src of its own pad in place, and any other src, a dense
// batch included, is first copied into pooled phase rows. A dense batch
// (src, dst and any residual dense) runs in groups of consecutive
// samples, as many as one unit spans, each group on its own phase rows,
// which so stay about one unit wide; sharded, the batch is first split
// evenly among the workers, so that a worker reads, copies and stores
// only its own samples. Any other batch shares one copy of the phase
// rows, made by channel shards, among units of output rows and samples.
func ConvPlaneForward(dst Plane, wd []float32, src Plane, kh, kw, stride, pad int, ep *ConvEpilogue) {
	n, c, outC := src.N, src.C, dst.C
	outH := ConvOutSize(src.H, kh, stride, pad)
	outW := ConvOutSize(src.W, kw, stride, pad)
	if dst.N != n || dst.H != outH || dst.W != outW {
		panic("tensor: ConvPlaneForward dst is not the conv's output shape")
	}
	if n == 0 || outC == 0 {
		return
	}
	if outH <= 0 || outW <= 0 {
		panic("tensor: ConvPlaneForward empty output")
	}
	k := c * kh * kw
	src.check("src")
	dst.check("dst")
	if len(wd) < outC*k {
		panic("tensor: ConvPlaneForward weight too small")
	}
	var res Plane
	if ep != nil {
		if len(ep.Mean) < outC || len(ep.Mul1) < outC || len(ep.Mul2) < outC || len(ep.Beta) < outC {
			panic("tensor: ConvPlaneForward epilogue constants too short")
		}
		if res = ep.Residual; res.Data != nil {
			if res.N != n || res.C != outC || res.H != outH || res.W != outW {
				panic("tensor: ConvPlaneForward residual is not the conv's output shape")
			}
			res.check("residual")
		}
	}
	shard := n*k*outH*outW*outC >= matMulShardFlops && Workers() > 1
	switch {
	case src.Span != 0 || dst.Span != 0 || res.Span != 0:
		convForwardRows(dst, wd, src, res, ep, kh, kw, stride, pad, shard)
	case shard:
		w := min(n, Workers())
		ParallelFor(w, func(_, lo, hi int) {
			convForwardDense(dst, wd, src, res, ep, kh, kw, stride, pad, lo*n/w, hi*n/w)
		})
	default:
		convForwardDense(dst, wd, src, res, ep, kh, kw, stride, pad, 0, n)
	}
}

// convForwardDense runs samples [i0, i1) of a dense batch in groups of
// consecutive samples, as many as one unit spans, each group on its own
// phase rows.
func convForwardDense(dst Plane, wd []float32, src, res Plane, ep *ConvEpilogue, kh, kw, s, pad, i0, i1 int) {
	groups := ceilDiv(i1-i0, newRowGeom(src.samples(i0, i1), kh, kw, s, pad, 1).spc)
	for j := 0; j < groups; j++ {
		a, b := i0+j*(i1-i0)/groups, i0+(j+1)*(i1-i0)/groups
		convForwardRows(dst.samples(a, b), wd, src.samples(a, b), res.samples(a, b), ep, kh, kw, s, pad, false)
	}
}

// samples returns samples [i0, i1) of the dense plane p.
func (p Plane) samples(i0, i1 int) Plane {
	if p.Data != nil {
		p.Data = p.Data[i0*p.sampleStride() : i1*p.sampleStride()]
	}
	p.N = i1 - i0
	return p
}

// ceilDiv returns ⌈a/b⌉ for a ≥ 0 and b > 0.
func ceilDiv(a, b int) int {
	return (a + b - 1) / b
}

// tapTable fills offs with the c·kh·kw tap offsets of a stride-s conv
// on phase planes of phaseLen values whose rows lie rs apart (see
// rowGeom), in (ch, ky, kx) order: tap (ch, ky, kx) reads phase plane
// (ch, ky mod s, kx mod s) from row ky/s and column kx/s on. It returns
// the largest offset; the table does not ascend when s > 1.
func tapTable(offs []int, c, kh, kw, s, phaseLen, rs int) int {
	k1, maxOff := kh*kw, 0
	for ky := 0; ky < kh; ky++ {
		for kx := 0; kx < kw; kx++ {
			offs[ky*kw+kx] = (ky%s*s+kx%s)*phaseLen + ky/s*rs + kx/s
			maxOff = max(maxOff, offs[ky*kw+kx])
		}
	}
	for p := k1; p < c*k1; p++ { // channel ch's taps lie s² phase planes past channel ch-1's
		offs[p] = offs[p-k1] + s*s*phaseLen
	}
	return maxOff + (c-1)*s*s*phaseLen
}

// runWidth returns the width the tiles run a unit of ext extended
// columns whose runs start in pb: ext rounded up to a multiple of 8, so
// they meet no masked tail, whose masked load of an output row waits
// for the previous quad's masked store to retire; or ext itself when
// pb is too short for the rounded-up run of the tap at maxOff (a src
// read in place that is shorter than its Len).
func runWidth(pb []float32, ext, maxOff int) int {
	jw := (ext + 7) &^ 7
	if maxOff+jw > len(pb) {
		jw = ext
	}
	_ = pb[maxOff+jw-1] // every tap's run
	return jw
}

// storeRuns stores rows runs of n values of output channel oc: run y
// reads src[y·ss:] and writes dst[y·ds:], through ep, adding res[y·rs:]
// when res is not nil, or as it is when ep is nil; where keep is not
// nil, column x of every run is stored as +0 when keep[x] is 0.
func storeRuns(ep *ConvEpilogue, dst, src, res []float32, keep []uint32, oc, rows, n, ds, ss, rs int) {
	if ep != nil {
		ep.apply(dst, src, res, keep, oc, rows, n, ds, ss, rs)
		return
	}
	for y := 0; y < rows; y++ {
		d := dst[y*ds:][:n]
		copy(d, src[y*ss:][:n])
		if keep != nil {
			for x, k := range keep[:n] {
				if k == 0 {
					d[x] = 0
				}
			}
		}
	}
}

// rowGeom is the geometry of a convolution run on batch-row phase
// rows. With stride s, the zero-bordered plane of a sample's channel
// (hp × wp, hp = h+2·pad, wp = w+2·pad) splits into s² phase planes of
// hq × wq (hq = ⌈hp/s⌉, wq = ⌈wp/s⌉): phase (a, b) holds the plane
// values at rows ≡ a and columns ≡ b (mod s), +0 past the plane. Tap
// (ky, kx) of output (oy, ox) reads plane value (s·oy + ky, s·ox + kx),
// which is value (oy + ky/s, ox + kx/s) of phase (ky mod s, kx mod s),
// so every tap reads a run of its phase plane as a stride-1 tap reads
// the plane; with stride 1 the one phase plane is the plane. The batch's
// phase planes lie side by side: row r of phase plane (ch, a, b) holds
// row r of that phase plane of every sample, sample i's wq values from
// column i·q on. With stride 1 the samples share their borders, q = w +
// pad, and the phase rows are a batch-row plane of the conv's pad,
// which a batch-row src of that pad already is (inPlace); with stride 2
// or more each sample's segment has its own borders, q = wq. Each
// channel phase is then one image of hq rows lying r apart, and tap
// (ky, kx) of output (oy, ox) of sample i reads its value (oy + ky/s,
// i·q + ox + kx/s): the output is one wide image whose sample i lies
// from column i·q on, q apart, and whose columns in between straddle
// two samples.
type rowGeom struct {
	s, pad     int
	hq         int // rows of a phase plane
	q, r       int // a sample's period along a phase row; the distance between phase rows
	outH, outW int
	rows       int // output rows per unit
	blocks     int // row blocks
	spc        int // samples per unit
	cps, cols  int // column chunks per sample and their width: more than one when outW > gemmJTile
	chunks     int // sample chunks (spc samples or one column chunk each) per row block
	extMax     int // the widest unit's extended columns, rounded up to 8
	inPlace    bool
}

// newRowGeom sizes the units of a conv over the n samples of src. A
// unit covers a block of output rows and a run of whole samples (or,
// when one sample's row is wider than gemmJTile, one column chunk of
// one sample): as many rows as fit gemmJTile with the whole batch, or
// else one row and as many samples as fit, spread evenly. Rows share a
// unit only when fewer than 8 columns lie between one row's last
// output and the next row's first, which holds when the rows hold no
// samples past the batch: a small batch in rows sized for a larger one
// is therefore copied, not read in place. Where that makes fewer than
// minUnits units, rows and then samples are split further, so that
// every kernel worker gets one.
func newRowGeom(src Plane, kh, kw, s, pad, minUnits int) rowGeom {
	n, wq := src.N, ceilDiv(src.W+2*pad, s)
	g := rowGeom{s: s, pad: pad,
		hq:   ceilDiv(src.H+2*pad, s),
		outH: ConvOutSize(src.H, kh, s, pad),
		outW: ConvOutSize(src.W, kw, s, pad),
	}
	g.q = wq
	if s == 1 {
		g.q = src.W + pad
	}
	g.r = (n-1)*g.q + wq
	wide := (n-1)*g.q + g.outW // a whole output row's extended columns
	// A batch-row src of the conv's pad is read in place unless its rows
	// hold samples past the batch and the copy's shorter rows would let
	// two rows share a unit.
	if s == 1 && src.Span != 0 && src.Pad == pad && (src.rowLen() == g.r || wide+g.r > gemmJTile) {
		g.inPlace, g.r = true, src.rowLen()
	}
	g.rows = 1
	if wide <= gemmJTile && g.r-wide < 8 {
		g.rows = min((gemmJTile-wide)/g.r+1, g.outH)
	}
	g.blocks = max(ceilDiv(g.outH, g.rows), min(g.outH, minUnits))
	g.rows = ceilDiv(g.outH, g.blocks)
	g.blocks = ceilDiv(g.outH, g.rows)
	g.spc, g.cps, g.cols = n, 1, g.outW
	if g.outW > gemmJTile {
		g.spc, g.cps = 1, ceilDiv(g.outW, gemmJTile)
		g.cols = ceilDiv(g.outW, g.cps)
		g.chunks = n * g.cps
	} else {
		if wide > gemmJTile {
			g.spc = (gemmJTile-g.outW)/g.q + 1
		}
		chunks := max(ceilDiv(n, g.spc), min(n, ceilDiv(minUnits, g.blocks)))
		g.spc = ceilDiv(n, chunks)
		g.chunks = ceilDiv(n, g.spc)
	}
	g.extMax = ((g.rows-1)*g.r + (g.spc-1)*g.q + g.cols + 7) &^ 7
	return g
}

// unit returns unit u's output rows [oy0, oy1), samples [i0, i1) and
// columns [x0, x1) of each of them, in a batch of n.
func (g rowGeom) unit(u, n int) (oy0, oy1, i0, i1, x0, x1 int) {
	b, c := u/g.chunks, u%g.chunks
	oy0 = b * g.rows
	i0 = c / g.cps * g.spc
	x0 = c % g.cps * g.cols
	return oy0, min(oy0+g.rows, g.outH), i0, min(i0+g.spc, n), x0, min(x0+g.cols, g.outW)
}

// convForwardRows is ConvPlaneForward on batch-row phase rows
// (rowGeom), sharded when shard is set: a src it cannot read in place
// is first copied into pooled phase rows, shard by shard, and then the
// units run.
func convForwardRows(dst Plane, wd []float32, src, res Plane, ep *ConvEpilogue, kh, kw, s, pad int, shard bool) {
	minUnits := 1
	if shard {
		minUnits = Workers()
	}
	g := newRowGeom(src, kh, kw, s, pad, minUnits)
	pr := src.Data
	var buf *panelBuf
	if !g.inPlace {
		buf = getPanel(src.C*s*s*g.hq*g.r + 7)
		pr = buf.f
		if shard && src.C >= 2 {
			ParallelFor(src.C, func(_, lo, hi int) { toPhaseRows(pr, src, g, lo, hi) })
		} else {
			toPhaseRows(pr, src, g, 0, src.C)
		}
	}
	units := g.blocks * g.chunks
	if shard && units >= 2 {
		ParallelFor(units, func(_, lo, hi int) {
			convRowUnits(dst, wd, pr, src.C, res, ep, kh, kw, g, lo, hi)
		})
	} else {
		convRowUnits(dst, wd, pr, src.C, res, ep, kh, kw, g, 0, units)
	}
	if buf != nil {
		panelPool.Put(buf)
	}
}

// toPhaseRows writes the batch-row phase rows (rowGeom) of channels
// [lo, hi) of src into pr: channel-major, then by row phase, then by
// column phase, hq rows each, every row holding every sample's wq
// values of it, +0 at the border included. A row and everything
// written into it belong to one channel, so shards write disjoint rows.
// A stride-1 conv's phase rows of a batch-row src of its own pad are
// the leading r values of each of src's rows, copied whole.
func toPhaseRows(pr []float32, src Plane, g rowGeom, lo, hi int) {
	s, pad, w := g.s, g.pad, src.W
	o0, cs, rs, ss := src.Offset(0, lo, 0, 0), src.chanStride(), src.rowLen(), src.sampleStride()
	if s == 1 && src.Span != 0 && src.Pad == pad {
		for u, o := lo*g.hq, o0-pad*rs-pad; u < hi*g.hq; u, o = u+1, o+rs {
			copy(pr[u*g.r:][:g.r], src.Data[o:])
		}
		return
	}
	for ch := lo; ch < hi; ch, o0 = ch+1, o0+cs {
		u := ch * s * s * g.hq // the channel's first phase row
		for a := 0; a < s; a++ {
			for b := 0; b < s; b++ {
				x0 := ((b-pad)%s + s) % s // the first column whose plane column is ≡ b
				cnt, j0 := (w-x0+s-1)/s, (x0+pad)/s
				for r := 0; r < g.hq; r, u = r+1, u+1 {
					row := pr[u*g.r:][:g.r]
					clear(row)
					y := r*s + a - pad // the image row of phase row r
					if y < 0 || y >= src.H || x0 >= w {
						continue
					}
					for i, o := 0, o0+y*rs+x0; i < src.N; i, o = i+1, o+ss {
						d := row[i*g.q+j0:][:cnt]
						x := src.Data[o:][:(cnt-1)*s+1]
						if s == 1 {
							copy(d, x)
							continue
						}
						for j := range d {
							d[j] = x[j*s]
						}
					}
				}
			}
		}
	}
}

// convRowUnits computes units [lo, hi) of a forward on the batch-row
// phase rows pr of a c-channel src. There is no gather: the patch row
// of tap p for a unit is the contiguous run that starts offs[p]
// (tapTable) past the unit's first extended column, oy0·r + i0·q + x0,
// and spans ext = (rows-1)·r + (i1-i0-1)·q + (x1-x0) columns. The tiles
// read those runs in place, through that table of the k tap offsets,
// which every unit shares, runWidth columns wide. The columns that
// straddle two samples, a border or the end of a row are dropped; the
// border holds +0, exactly what the Im2Col gather writes for an
// out-of-image tap, so every useful output element meets the operands
// of the gathered composition in the same order and keeps its bits.
// When dst and res (if any) are batch-row planes whose samples lie q
// apart, as the output's do in the phase rows, each row of a unit is
// one run, stored whole, with +0 in its gap columns (the unit owns
// them: they lie between its samples): the store ANDs column e with
// keep[e], all ones when e mod q < outW and 0 in a gap. Otherwise each
// output row stores its samples' runs one sample apart.
func convRowUnits(dst Plane, wd, pr []float32, c int, res Plane, ep *ConvEpilogue, kh, kw int, g rowGeom, lo, hi int) {
	outC, n := dst.C, dst.N
	buf := getPanel(outC * g.extMax)
	blk := buf.f
	offs := buf.table(c * kh * kw)
	maxOff := tapTable(offs, c, kh, kw, g.s, g.hq*g.r, g.r)
	dwp, rwp := dst.rowLen(), res.rowLen()
	dss, rss := dst.sampleStride(), res.sampleStride()
	wide := dst.Span != 0 && dss == g.q && (res.Data == nil || res.Span != 0 && rss == g.q)
	var keep []uint32
	if wide && g.spc > 1 {
		keep = buf.mask(g.extMax)
		for e := range keep {
			keep[e] = 0
			if e%g.q < g.outW {
				keep[e] = ^uint32(0)
			}
		}
	}
	dcs, rcs := dst.chanStride(), res.chanStride()
	for u := lo; u < hi; u++ {
		oy0, oy1, i0, i1, x0, x1 := g.unit(u, n)
		rows, cols := oy1-oy0, (i1-i0-1)*g.q+x1-x0
		pb := pr[oy0*g.r+i0*g.q+x0:]
		jw := runWidth(pb, (rows-1)*g.r+cols, maxOff)
		convPanelRows(blk, wd, pb, offs, outC, jw)
		d0, r0 := dst.Offset(i0, 0, oy0, x0), res.Offset(i0, 0, oy0, x0)
		for oc := 0; oc < outC; oc++ {
			run := blk[oc*jw:]
			d := dst.Data[d0+oc*dcs:]
			var r []float32
			if res.Data != nil {
				r = res.Data[r0+oc*rcs:]
			}
			if !wide {
				for y := 0; y < rows; y++ {
					var ry []float32
					if r != nil {
						ry = r[y*rwp:]
					}
					storeRuns(ep, d[y*dwp:], run[y*g.r:], ry, nil, oc, i1-i0, x1-x0, dss, g.q, rss)
				}
				continue
			}
			storeRuns(ep, d, run, r, keep, oc, rows, cols, dwp, g.r, rwp)
		}
	}
	panelPool.Put(buf)
}

// convPanelRows runs the 2-row register tiles of matmul.go over all
// outC weight rows for one panel: output row oc lands at
// od[oc*jw : +jw], and panel row p is read at pb[offs[p] : +jw].
// Reusing Gemm's tiles (exactTile2/exactTile1) verbatim is what makes
// the fused path's per-element operation sequence identical to Gemm's.
func convPanelRows(od, wd, pb []float32, offs []int, outC, jw int) {
	k := len(offs)
	i := 0
	for ; i+2 <= outC; i += 2 {
		exactTile2(od[i*jw:][:jw], od[(i+1)*jw:][:jw], wd[i*k:][:k], wd[(i+1)*k:][:k], pb, offs, jw)
	}
	for ; i < outC; i++ {
		exactTile1(od[i*jw:][:jw], wd[i*k:][:k], pb, offs, jw)
	}
}

// residual returns the dense residual from element o on, or nil when
// there is none.
func (ep *ConvEpilogue) residual(o int) []float32 {
	if ep.Residual.Data == nil {
		return nil
	}
	return ep.Residual.Data[o:]
}

// apply stores rows runs of n epilogue outputs of channel oc: run y
// reads src[y·ss:] and writes dst[y·ds:], adding res[y·rs:] when res is
// not nil, and stores +0 in column x of every run where keep (when not
// nil) holds 0 there. src and res may each be dst, at dst's strides.
func (ep *ConvEpilogue) apply(dst, src, res []float32, keep []uint32, oc, rows, n, ds, ss, rs int) {
	if avxSupported {
		avxEpilogue(dst, src, res, keep, rows, n, ds, ss, rs, ep.Mean[oc], ep.Mul1[oc], ep.Mul2[oc], ep.Beta[oc], !ep.NoReLU)
		return
	}
	epilogueLoop(dst, src, res, keep, rows, n, ds, ss, rs, ep.Mean[oc], ep.Mul1[oc], ep.Mul2[oc], ep.Beta[oc], !ep.NoReLU)
}

// epilogueLoop is the epilogue in Go: the reference the AVX kernel is
// tested against, and the path of builds and CPUs without AVX. Run y
// reads src[y·ss:], adds res[y·rs:] when res is not nil and writes
// dst[y·ds:], n values each, ANDing column x's bits with keep[x] when
// keep is not nil. Each product is converted to float32 before the next
// operation, so no compiler fuses ·mul2 + beta into one rounding.
func epilogueLoop(dst, src, res []float32, keep []uint32, rows, n, ds, ss, rs int, mean, mul1, mul2, beta float32, relu bool) {
	for y := 0; y < rows; y++ {
		d := dst[y*ds:][:n]
		var r []float32
		if res != nil {
			r = res[y*rs:][:n]
		}
		for x, v := range src[y*ss:][:n] {
			v = float32(float32((v-mean)*mul1)*mul2) + beta
			if r != nil {
				v += r[x]
			}
			if relu && !(v > 0) {
				v = 0
			}
			if keep != nil {
				v = math.Float32frombits(math.Float32bits(v) & keep[x])
			}
			d[x] = v
		}
	}
}

// Apply stores the epilogue of the n×c×area batch src into dst, one
// (sample, channel) run at a time, adding the Residual (dense, in src's
// layout) when it is not nil: the normalize pass of nn.BatchNorm2D's
// training forward. Mean, Mul1, Mul2 and Beta hold c values.
func (ep *ConvEpilogue) Apply(dst, src []float32, n, c, area int) {
	checkBatch("ConvEpilogue.Apply", src, n, c, area, len(ep.Mean), len(ep.Mul1), len(ep.Mul2), len(ep.Beta))
	checkBatch("ConvEpilogue.Apply", dst, n, c, area)
	if r := ep.Residual; r.Data != nil {
		if r.Pad != 0 || r.Span != 0 {
			panic("tensor: ConvEpilogue.Apply residual must be dense")
		}
		checkBatch("ConvEpilogue.Apply", r.Data, n, c, area)
	}
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			o := (i*c + ch) * area
			ep.apply(dst[o:], src[o:], ep.residual(o), nil, ch, 1, area, area, area, area)
		}
	}
}

// ConvGemmBackward computes both convolution gradients in one fused
// batched pass:
//
//   - dwChunks receives n per-sample weight-gradient chunks, chunk i
//     (outC×(c·kh·kw) row-major, dY_i · col_iᵀ) at
//     dwChunks[i*outC*c*kh*kw:]. The caller adds the chunks to the
//     gradient in ascending sample order, preserving the per-sample
//     accumulation the serial GemmTB+AddInPlace loop performed. With
//     AVX a chunk is dY_i (outC × outArea) times the sample's
//     patch-major panel (outArea × c·kh·kw, one receptive field per
//     row) on the A·B tiles with their zero skips off. Each element
//     then is s = s + (((a0·b0 + a1·b1) + a2·b2) + a3·b3) over quads
//     of output positions, and s = s + a·b over the outArea mod 4
//     left, from +0: GemmTB's dot, skipping nothing. Without AVX
//     convSampleDW's dot loops run over column rows generated on the
//     fly.
//   - dX (n×c×h×w, any contents on entry) receives the col2im of
//     Wᵀ·dY: each sample's dcol block is computed into pooled scratch
//     by the exact GemmTA's kernel (exactTAShard) and scattered in
//     ascending row order — exactly Col2Im's accumulation order —
//     without a per-layer dcol buffer.
//
// Stride-1 convolutions gather and scatter without a bounds test. The
// sample is copied once into a zero-bordered plane, where every tap of
// a receptive field row is one contiguous kw-long run (planePatches),
// and dX accumulates in a second zero-bordered plane, one outW-long
// run add per output row, before its interior is copied out. An
// out-of-image tap reads the border's +0, where im2rowPatch writes 0,
// and scatters into the border, where Col2Im drops it. Strided
// convolutions gather with im2rowPatch and scatter with col2imRow.
//
// Samples are independent, so the batch shards across Workers()
// goroutines above matMulShardFlops; per-sample results are
// bit-identical to the materialized GemmTB / GemmTA+Col2Im composition
// at any worker count.
func ConvGemmBackward(dX, dwChunks, wd, src, dY []float32, n, c, h, w, outC, kh, kw, stride, pad int) {
	outH := ConvOutSize(h, kh, stride, pad)
	outW := ConvOutSize(w, kw, stride, pad)
	if n == 0 {
		return
	}
	if outH <= 0 || outW <= 0 {
		panic("tensor: ConvGemmBackward empty output")
	}
	outArea := outH * outW
	k := c * kh * kw
	if len(src) < n*c*h*w || len(dX) < n*c*h*w {
		panic("tensor: ConvGemmBackward src/dX too small")
	}
	if len(wd) < outC*k || len(dwChunks) < n*outC*k {
		panic("tensor: ConvGemmBackward weight/chunk buffer too small")
	}
	if len(dY) < n*outC*outArea {
		panic("tensor: ConvGemmBackward dY too small")
	}
	if n >= 2 && n*k*outArea*outC >= matMulShardFlops && Workers() > 1 {
		ParallelFor(n, func(_, lo, hi int) {
			convBackwardSamples(dX, dwChunks, wd, src, dY, c, h, w, outC, kh, kw, stride, pad, outH, outW, lo, hi)
		})
		return
	}
	convBackwardSamples(dX, dwChunks, wd, src, dY, c, h, w, outC, kh, kw, stride, pad, outH, outW, 0, n)
}

// convBackwardSamples processes samples [lo, hi): the dW chunk and the
// dX of each sample in turn. A sample's dX is written whole: a stride-1
// conv copies it out of its dX plane, and a strided one clears it,
// cache-hot, just before its scatter adds into it.
func convBackwardSamples(dX, dwChunks, wd, src, dY []float32, c, h, w, outC, kh, kw, stride, pad, outH, outW, lo, hi int) {
	outArea := outH * outW
	k := c * kh * kw
	chw := c * h * w
	outStride := outC * outArea
	kp := (k + 7) &^ 7 // the dW tiles' width; see convSampleDWTiles
	planeLen := 0
	if stride == 1 {
		planeLen = c * (h + 2*pad) * (w + 2*pad)
	}
	// Scratch, all from one pooled panel: the sample's zero-bordered
	// plane and the dX plane (stride 1 only); a kp·outArea block that
	// holds the patch-major panel for dW and then dcol for dX; the
	// tiles' outC×kp chunk; 4 generated column rows for convSampleDW's
	// dot loops; and the dW tiles' table of panel rows, kp apart.
	buf := getPanel(2*planeLen + kp*outArea + outC*kp + 4*outArea)
	f := buf.f
	plane, f := f[:planeLen], f[planeLen:]
	dxPlane, f := f[:planeLen], f[planeLen:]
	blk, f := f[:kp*outArea], f[kp*outArea:]
	tileChunk, gen := f[:outC*kp], f[outC*kp:]
	clear(plane) // the border; each sample rewrites only the interior
	offs := buf.strideTable(outArea, kp)
	pointwise := kh == 1 && kw == 1 && stride == 1 && pad == 0
	for i := lo; i < hi; i++ {
		srci := src[i*chw : (i+1)*chw]
		dyi := dY[i*outStride : (i+1)*outStride]
		chunk := dwChunks[i*outC*k : (i+1)*outC*k]
		if avxSupported {
			convSampleDWTiles(chunk, srci, dyi, blk, tileChunk, plane, offs, c, h, w, outC, kh, kw, stride, pad, outH, outW)
		} else {
			convSampleDW(chunk, srci, dyi, gen, c, h, w, outC, kh, kw, stride, pad, outH, outW, pointwise)
		}
		convSampleDX(dX[i*chw:(i+1)*chw], wd, dyi, blk[:k*outArea], dxPlane,
			c, h, w, outC, kh, kw, stride, pad, outH, outW)
	}
	panelPool.Put(buf)
}

// convSampleDX computes one sample's input gradient: the dcol block
// Wᵀ·dY_i goes into the pooled scratch dcol (k × outArea) and is
// scattered in ascending row order, exactly Col2Im's accumulation
// order. A stride-1 convolution scatters into the zero-bordered
// dxPlane, one outW-long run add per output row, and copies its
// interior over dxi; the out-of-image taps land in the border, which is
// Col2Im dropping them. Strided convolutions clear dxi and scatter into
// it with col2imRow.
func convSampleDX(dxi, wd, dyi, dcol, dxPlane []float32, c, h, w, outC, kh, kw, stride, pad, outH, outW int) {
	outArea := outH * outW
	k := c * kh * kw
	exactTAShard(dcol, wd, dyi, outC, k, outArea, 0, k)
	if stride != 1 {
		kk := kh * kw
		clear(dxi)
		for r := 0; r < k; r++ {
			col2imRow(dxi, dcol[r*outArea:(r+1)*outArea], (r/kk)*h*w, (r%kk)/kw, r%kw, h, w, outH, outW, stride, pad)
		}
		return
	}
	hp, wp := h+2*pad, w+2*pad
	clear(dxPlane)
	r := 0
	for ch := 0; ch < c; ch++ {
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				addRuns(dxPlane[(ch*hp+ky)*wp+kx:], dcol[r*outArea:(r+1)*outArea], outH, outW, wp)
				r++
			}
		}
	}
	fromPlane(dxi, dxPlane, c, h, w, pad)
}

// toPlane copies the c×h×w sample x into the interior of the
// zero-bordered plane (c × (h+2·pad) × (w+2·pad)), leaving the border
// as it is.
func toPlane(plane, x []float32, c, h, w, pad int) {
	hp, wp := h+2*pad, w+2*pad
	for ch := 0; ch < c; ch++ {
		for y := 0; y < h; y++ {
			copy(plane[(ch*hp+y+pad)*wp+pad:][:w], x[(ch*h+y)*w:][:w])
		}
	}
}

// fromPlane copies the interior of the plane back into x: toPlane's
// inverse.
func fromPlane(x, plane []float32, c, h, w, pad int) {
	hp, wp := h+2*pad, w+2*pad
	for ch := 0; ch < c; ch++ {
		for y := 0; y < h; y++ {
			copy(x[(ch*h+y)*w:][:w], plane[(ch*hp+y+pad)*wp+pad:][:w])
		}
	}
}

// planePatches writes the patch-major panel of a stride-1 convolution
// from the sample's zero-bordered plane (c × hp × wp): panel row q =
// (oy, ox), at panel[q·ps:], is the receptive field of output (oy, ox)
// in (ch, ky, kx) order, c·kh runs of kw values that each lie
// contiguous in the plane at (ch·hp + oy + ky)·wp + ox. The border
// holds +0 where im2rowPatch writes 0, so the panel holds im2rowPatch's
// values. A 3×3 kernel's runs are copied by an AVX kernel where the CPU
// has AVX.
func planePatches(panel []float32, ps int, plane []float32, c, hp, wp, kh, kw, outH, outW int) {
	if avxSupported && kh == 3 && kw == 3 {
		avxPatches3x3(panel, ps, plane, c, hp, wp, outH, outW)
		return
	}
	planePatchesLoop(panel, ps, plane, c, hp, wp, kh, kw, outH, outW)
}

// planePatchesLoop is planePatches in Go, one panel column at a time:
// column (ch, ky, kx) of panel row (oy, ox) is plane value
// (ch·hp + oy + ky)·wp + kx + ox, so each output row's outW values
// come from one contiguous plane run.
func planePatchesLoop(panel []float32, ps int, plane []float32, c, hp, wp, kh, kw, outH, outW int) {
	r := 0
	for ch := 0; ch < c; ch++ {
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				for oy := 0; oy < outH; oy++ {
					d := panel[oy*outW*ps+r:]
					for ox, v := range plane[(ch*hp+oy+ky)*wp+kx:][:outW] {
						d[ox*ps] = v
					}
				}
				r++
			}
		}
	}
}

// addRuns runs addRunsLoop on the AVX kernel where the CPU has AVX.
// Each element takes one rounded add either way, so both give the same
// bits.
func addRuns(dst, src []float32, rows, n, ds int) {
	if avxSupported {
		avxAddRuns(dst, src, rows, n, ds)
		return
	}
	addRunsLoop(dst, src, rows, n, ds)
}

// addRunsLoop adds rows runs of n values: dst[y·ds+x] += src[y·n+x]
// for y < rows and x < n. With ds = 0 every run adds into the same n
// values, in ascending y (AddRows).
func addRunsLoop(dst, src []float32, rows, n, ds int) {
	for y := 0; y < rows; y++ {
		d := dst[y*ds:][:n]
		for x, v := range src[y*n : (y+1)*n] {
			d[x] += v
		}
	}
}

// convSampleDWTiles computes one sample's weight-gradient chunk on the
// exact AVX tiles with their zero skips off: chunk row oc is dY_i's row
// oc (outArea coefficients) times the sample's patch-major panel
// (outArea × k), whose quad association is GemmTB's dot's. The skips
// must be off: a zero dY quad against ±Inf or NaN in the panel gives
// NaN in the dot, where a skip would leave the sum as it was.
//
// A stride-1 panel is copied from the zero-bordered plane (c ×
// (h+2·pad) × (w+2·pad), border +0), which receives the sample first;
// a strided one is gathered by im2rowPatch. The panel's rows lie kp =
// k rounded up to 8 apart (offs holds q·kp for each of the outArea
// rows), and the tiles run kp wide: at a width of whole vectors they
// run no masked tail, whose masked load of an output row would wait for
// the previous quad's masked store to retire. When k is a multiple of 8
// the tiles store straight into the chunk; otherwise they store into
// the outC × kp scratch tc, whose first k columns are then copied to
// the chunk. The padding columns hold stale values and give stale
// results, which are not copied out.
func convSampleDWTiles(chunk, srci, dyi, panel, tc, plane []float32, offs []int, c, h, w, outC, kh, kw, stride, pad, outH, outW int) {
	outArea := outH * outW
	k := c * kh * kw
	kp := (k + 7) &^ 7
	if stride == 1 {
		toPlane(plane, srci, c, h, w, pad)
		planePatches(panel, kp, plane, c, h+2*pad, w+2*pad, kh, kw, outH, outW)
	} else {
		for q := 0; q < outArea; q++ {
			im2rowPatch(panel[q*kp:q*kp+k], srci, c, h, w, kh, kw, stride, pad, q/outW, q%outW)
		}
	}
	out := tc
	if kp == k {
		out = chunk
	}
	oc := 0
	for ; oc+2 <= outC; oc += 2 {
		avxTile2(out[oc*kp:(oc+1)*kp], out[(oc+1)*kp:(oc+2)*kp],
			dyi[oc*outArea:(oc+1)*outArea], dyi[(oc+1)*outArea:(oc+2)*outArea], panel, offs, kp, false)
	}
	if oc < outC {
		avxTile1(out[oc*kp:(oc+1)*kp], dyi[oc*outArea:(oc+1)*outArea], panel, offs, kp, false)
	}
	if kp == k {
		return
	}
	for oc := 0; oc < outC; oc++ {
		copy(chunk[oc*k:(oc+1)*k], tc[oc*kp:])
	}
}

// im2rowPatch gathers the receptive field of output position (oy, ox)
// as one contiguous k-length row (c·kh·kw, channel-major), with
// out-of-bounds taps written as exact 0 — one row of the patch-major
// (im2row) layout, the transpose of im2colRow's column order.
func im2rowPatch(dst, src []float32, c, h, w, kh, kw, stride, pad, oy, ox int) {
	d := 0
	for ci := 0; ci < c; ci++ {
		plane := src[ci*h*w : (ci+1)*h*w]
		for ky := 0; ky < kh; ky++ {
			iy := oy*stride - pad + ky
			if iy < 0 || iy >= h {
				for kx := 0; kx < kw; kx++ {
					dst[d] = 0
					d++
				}
				continue
			}
			base := iy * w
			ix := ox*stride - pad
			for kx := 0; kx < kw; kx++ {
				if x := ix + kx; x >= 0 && x < w {
					dst[d] = plane[base+x]
				} else {
					dst[d] = 0
				}
				d++
			}
		}
	}
}

// convSampleDW computes one sample's weight-gradient chunk
// dY_i · col_iᵀ with column rows generated on demand — the dW of
// builds and CPUs without AVX, and the reference the dW tiles are
// tested against. With pointwise set (a 1×1/stride-1/pad-0
// convolution) column row r is row r of the input plane itself, read
// in place. The dot-product bodies are exactly gemmTBRows' 1×4 and
// single-column tiles, reordered column-quad-outer so each generated
// row quad is reused across every output row — a reordering across
// output elements only, so each element's accumulation sequence is
// unchanged.
func convSampleDW(chunk, srci, dyi, gen []float32, c, h, w, outC, kh, kw, stride, pad, outH, outW int, pointwise bool) {
	outArea := outH * outW
	k := c * kh * kw
	kk := kh * kw
	colRow := func(r, slot int) []float32 {
		if pointwise {
			return srci[r*outArea : (r+1)*outArea]
		}
		d := gen[slot*outArea : (slot+1)*outArea]
		ch := r / kk
		ky := (r % kk) / kw
		kx := r % kw
		im2colRow(d, srci, ch*h*w, ky, kx, h, w, outH, outW, stride, pad)
		return d
	}
	j := 0
	for ; j+4 <= k; j += 4 {
		b0 := colRow(j, 0)
		b1 := colRow(j+1, 1)
		b2 := colRow(j+2, 2)
		b3 := colRow(j+3, 3)
		for oc := 0; oc < outC; oc++ {
			arow := dyi[oc*outArea : (oc+1)*outArea]
			var s0, s1, s2, s3 float32
			p := 0
			for ; p+4 <= outArea; p += 4 {
				a0, a1, a2, a3 := arow[p], arow[p+1], arow[p+2], arow[p+3]
				s0 += float32(a0*b0[p]) + float32(a1*b0[p+1]) + float32(a2*b0[p+2]) + float32(a3*b0[p+3])
				s1 += float32(a0*b1[p]) + float32(a1*b1[p+1]) + float32(a2*b1[p+2]) + float32(a3*b1[p+3])
				s2 += float32(a0*b2[p]) + float32(a1*b2[p+1]) + float32(a2*b2[p+2]) + float32(a3*b2[p+3])
				s3 += float32(a0*b3[p]) + float32(a1*b3[p+1]) + float32(a2*b3[p+2]) + float32(a3*b3[p+3])
			}
			for ; p < outArea; p++ {
				av := arow[p]
				s0 += float32(av * b0[p])
				s1 += float32(av * b1[p])
				s2 += float32(av * b2[p])
				s3 += float32(av * b3[p])
			}
			chunk[oc*k+j], chunk[oc*k+j+1], chunk[oc*k+j+2], chunk[oc*k+j+3] = s0, s1, s2, s3
		}
	}
	for ; j < k; j++ {
		brow := colRow(j, 0)
		for oc := 0; oc < outC; oc++ {
			arow := dyi[oc*outArea : (oc+1)*outArea]
			var s float32
			p := 0
			for ; p+4 <= outArea; p += 4 {
				s += float32(arow[p]*brow[p]) + float32(arow[p+1]*brow[p+1]) +
					float32(arow[p+2]*brow[p+2]) + float32(arow[p+3]*brow[p+3])
			}
			for ; p < outArea; p++ {
				s += float32(arow[p] * brow[p])
			}
			chunk[oc*k+j] = s
		}
	}
}
