package tensor

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
//     still cache-hot. On the exact tier a stride-1 panel is a block
//     of output rows read from a zero-bordered copy of the sample, one
//     contiguous run per tap, with no gather (convForwardPlanes);
//     strided convolutions gather their patches (im2colSeg). Work
//     parallelizes across panels, not only across samples.
//   - Backward streams: dX stages Wᵀ·dY in a pooled scratch block and
//     a fused col2im consumer scatters it row-by-row into the image
//     (no per-layer dcol buffer is retained), and dW is computed as
//     per-sample chunks with column rows generated on the fly (no col
//     buffer at all).
//
// Bit-identity contract (§6/§7 of DESIGN.md): every output element's
// floating-point accumulation order is exactly that of the
// Im2Col+Gemm / GemmTB / GemmTA+Col2Im composition it replaced.
// Batching, panel regrouping and the extended stride-1 panels only
// change which elements are computed together, never the operands or
// the operation sequence of one element;
// convgemm_test.go pins this against the materialized composition as
// the bitwise oracle across a shape grid, a fuzz target, and several
// worker counts.
//
// One carve-out: the fast tier's dW stage (convSampleDWAxpy in
// gemm_fast.go) batches rank-1 axpy updates instead of running dot
// products, which changes each chunk element's rounding order. It is
// therefore ULP-pinned against the exact oracle like every other
// fast-tier kernel — not bitwise — while remaining bit-deterministic
// and worker-invariant within the fast tier. The exact tier and the
// dX stage keep the full bitwise contract on both tiers.

// im2colSeg lowers output positions [q0, q1) of one CHW image: row p of
// the column matrix lands at dst[p*rowStride : p*rowStride+(q1-q0)].
// It is im2colRow restricted to a position range, split into full
// output-row runs so the inner loops stay branch-light.
func im2colSeg(dst []float32, rowStride int, src []float32, c, h, w, kh, kw, stride, pad, outH, outW, q0, q1 int) {
	oy0, ox0 := q0/outW, q0%outW
	row := 0
	for ch := 0; ch < c; ch++ {
		chBase := ch * h * w
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				d := dst[row*rowStride:]
				row++
				di := 0
				oy, ox := oy0, ox0
				for q := q0; q < q1; {
					run := outW - ox
					if run > q1-q {
						run = q1 - q
					}
					iy := oy*stride - pad + ky
					if iy < 0 || iy >= h {
						for x := 0; x < run; x++ {
							d[di] = 0
							di++
						}
					} else {
						rowBase := chBase + iy*w
						ix := ox*stride - pad + kx
						for x := 0; x < run; x++ {
							if ix >= 0 && ix < w {
								d[di] = src[rowBase+ix]
							} else {
								d[di] = 0
							}
							di++
							ix += stride
						}
					}
					q += run
					oy++
					ox = 0
				}
			}
		}
	}
}

// ConvGemmForward computes the NCHW convolution output
// dst = W · im2col(src) for a whole batch as one implicit GEMM of
// shape outC × (c·kh·kw) × (n·outH·outW). dst is n×outC×outH×outW,
// wd is outC×(c·kh·kw) row-major, src is n×c×h×w. Above
// matMulShardFlops the work is sharded across Workers() goroutines.
// Results are bit-identical to the per-sample Im2Col+Gemm composition
// at any worker count.
//
// Three paths, by geometry:
//
//   - 1×1/stride-1/pad-0: zero-copy. The input already is the column
//     matrix, so the tile kernels read src directly.
//   - Other stride-1 convolutions on the exact tier: gather-free
//     (convForwardPlanes). Each sample is copied once into a
//     zero-bordered plane in which every tap's patch row is one
//     contiguous run.
//   - Strided convolutions, and every convolution on the fast tier:
//     input patches are gathered into pooled column panels
//     (im2colSeg) and consumed while cache-hot. The fast kernels
//     round a column differently in the scalar tail than in the
//     vector body, so they must see the composed Gemm's panels.
func ConvGemmForward(dst, wd, src []float32, n, c, h, w, outC, kh, kw, stride, pad int) {
	outH := ConvOutSize(h, kh, stride, pad)
	outW := ConvOutSize(w, kw, stride, pad)
	if n == 0 || outC == 0 {
		return
	}
	if outH <= 0 || outW <= 0 {
		panic("tensor: ConvGemmForward empty output")
	}
	outArea := outH * outW
	k := c * kh * kw
	if len(src) < n*c*h*w {
		panic("tensor: ConvGemmForward src too small")
	}
	if len(wd) < outC*k {
		panic("tensor: ConvGemmForward weight too small")
	}
	if len(dst) < n*outC*outArea {
		panic("tensor: ConvGemmForward dst too small")
	}
	if kh == 1 && kw == 1 && stride == 1 && pad == 0 {
		convForward1x1(dst, wd, src, n, c, outArea, outC)
		return
	}
	parallel := n*k*outArea*outC >= matMulShardFlops && Workers() > 1
	if stride == 1 && outW <= gemmJTile && !useFast() {
		// Blocks of output rows whose extended panel, (rows-1)·wp +
		// outW columns, fits gemmJTile; spread evenly over outH.
		wp := w + 2*pad
		rows := min((gemmJTile-outW)/wp+1, outH)
		blocks := (outH + rows - 1) / rows
		rows = (outH + blocks - 1) / blocks
		units := n * blocks
		if units >= 2 && parallel {
			ParallelFor(units, func(_, lo, hi int) {
				convForwardPlanes(dst, wd, src, c, h, w, outC, kh, kw, pad, rows, blocks, lo, hi)
			})
			return
		}
		convForwardPlanes(dst, wd, src, c, h, w, outC, kh, kw, pad, rows, blocks, 0, units)
		return
	}
	perSample := (outArea + gemmJTile - 1) / gemmJTile
	units := n * perSample
	if units >= 2 && parallel {
		ParallelFor(units, func(_, lo, hi int) {
			convForwardUnits(dst, wd, src, c, h, w, kh, kw, stride, pad, outH, outW, outC, perSample, lo, hi)
		})
		return
	}
	convForwardUnits(dst, wd, src, c, h, w, kh, kw, stride, pad, outH, outW, outC, perSample, 0, units)
}

// convForwardPlanes computes units [lo, hi) of a stride-1 forward; a
// unit is a block of at most rows output rows of one sample, and each
// sample has blocks of them. There is no gather: the sample is copied
// once into a zero-bordered plane (c × hp × wp, hp = h+2·pad,
// wp = w+2·pad), and there the patch row of tap (ch, ky, kx) for
// output rows [oy0, oy1) is the contiguous run of ext =
// (oy1-oy0-1)·wp + outW plane values starting at ch·hp·wp +
// (oy0+ky)·wp + kx. Extended column e is output (oy0 + e/wp, e mod wp)
// when e mod wp < outW; the other columns straddle the border and are
// dropped. Each block copies its k runs into a panel, one copy per
// tap, runs the exact tiles over all ext columns, and copies the outW
// useful columns of each row into dst. The border holds +0, exactly
// what im2colSeg writes for an out-of-image tap, so every useful
// output element meets the operands of the gathered path in the same
// order and keeps its bits.
func convForwardPlanes(dst, wd, src []float32, c, h, w, outC, kh, kw, pad, rows, blocks, lo, hi int) {
	hp, wp := h+2*pad, w+2*pad
	outH, outW := hp-kh+1, wp-kw+1
	outArea := outH * outW
	k := c * kh * kw
	chw := c * h * w
	extMax := (rows-1)*wp + outW
	buf := getPanel(c*hp*wp + (k+outC)*extMax)
	plane := buf.f[:c*hp*wp]
	panel := buf.f[c*hp*wp : c*hp*wp+k*extMax]
	ext := buf.f[c*hp*wp+k*extMax:]
	clear(plane) // the border; each sample rewrites only the interior
	filled := -1
	for u := lo; u < hi; u++ {
		i, oy0 := u/blocks, (u%blocks)*rows
		oy1 := min(oy0+rows, outH)
		if i != filled {
			si := src[i*chw : (i+1)*chw]
			for ch := 0; ch < c; ch++ {
				for y := 0; y < h; y++ {
					copy(plane[(ch*hp+y+pad)*wp+pad:][:w], si[(ch*h+y)*w:][:w])
				}
			}
			filled = i
		}
		jw := (oy1-oy0-1)*wp + outW
		p := 0
		for ch := 0; ch < c; ch++ {
			for ky := 0; ky < kh; ky++ {
				run := plane[(ch*hp+oy0+ky)*wp:]
				for kx := 0; kx < kw; kx++ {
					copy(panel[p*jw:(p+1)*jw], run[kx:kx+jw])
					p++
				}
			}
		}
		convPanelRows(ext, wd, panel, k, outC, jw, jw, 0, 0, jw)
		for oc := 0; oc < outC; oc++ {
			od := dst[(i*outC+oc)*outArea:]
			for oy := oy0; oy < oy1; oy++ {
				copy(od[oy*outW:(oy+1)*outW], ext[oc*jw+(oy-oy0)*wp:])
			}
		}
	}
	panelPool.Put(buf)
}

// convForwardUnits packs and consumes panel units [lo, hi). A unit is
// one column panel of one sample — panels are sample-aligned, so every
// panel's output rows are contiguous dst segments and the tiles write
// straight into the batch output. Each panel is lowered into a pooled
// k×gemmJTile buffer and multiplied while still cache-hot; the column
// matrix as a whole never exists.
func convForwardUnits(dst, wd, src []float32, c, h, w, kh, kw, stride, pad, outH, outW, outC, perSample, lo, hi int) {
	outArea := outH * outW
	k := c * kh * kw
	chw := c * h * w
	outStride := outC * outArea
	pbuf := getPanel(k * gemmJTile)
	for u := lo; u < hi; u++ {
		i, pi := u/perSample, u%perSample
		j0 := pi * gemmJTile
		jw := outArea - j0
		if jw > gemmJTile {
			jw = gemmJTile
		}
		im2colSeg(pbuf.f, jw, src[i*chw:(i+1)*chw], c, h, w, kh, kw, stride, pad, outH, outW, j0, j0+jw)
		convPanelRows(dst, wd, pbuf.f, k, outC, jw, jw, 0, i*outStride+j0, outArea)
	}
	panelPool.Put(pbuf)
}

// convPanelRows runs the 2-row register tiles of matmul.go over all
// outC weight rows for one panel: output row oc lands at
// od[base+oc*orStride : +jw], panel row p is read at pb[pbBase+p*bs :
// +jw]. Reusing Gemm's tiles (exactTile2/exactTile1) verbatim is what
// makes the fused path's per-element operation sequence identical to
// Gemm's.
func convPanelRows(od, wd, pb []float32, k, outC, jw, bs, pbBase, base, orStride int) {
	if useFast() {
		// Fast tier: the same per-row microkernel the fast Gemm path
		// runs, so fused conv stays bit-identical to the composed
		// Im2Col+Gemm oracle within the tier.
		for i := 0; i < outC; i++ {
			fastTile1(od[base+i*orStride:base+i*orStride+jw], wd[i*k:i*k+k], pb, jw, bs, pbBase)
		}
		return
	}
	i := 0
	for ; i+2 <= outC; i += 2 {
		exactTile2(od[base+i*orStride:base+i*orStride+jw],
			od[base+(i+1)*orStride:base+(i+1)*orStride+jw],
			wd[i*k:i*k+k], wd[(i+1)*k:(i+1)*k+k], pb, jw, bs, pbBase)
	}
	for ; i < outC; i++ {
		exactTile1(od[base+i*orStride:base+i*orStride+jw], wd[i*k:i*k+k], pb, jw, bs, pbBase)
	}
}

// convForward1x1 is the zero-copy fast path for 1×1/stride-1/pad-0
// convolutions: sample i's column matrix IS its input plane block
// (c × area, row-major), so the tile kernels read src directly with
// panel row stride = area. Panels tile each sample's area columns;
// work parallelizes across (sample, panel) units.
func convForward1x1(dst, wd, src []float32, n, c, area, outC int) {
	if area == 0 {
		return
	}
	perSample := (area + gemmJTile - 1) / gemmJTile
	units := n * perSample
	body := func(lo, hi int) {
		for u := lo; u < hi; u++ {
			i, pi := u/perSample, u%perSample
			j0 := pi * gemmJTile
			jw := area - j0
			if jw > gemmJTile {
				jw = gemmJTile
			}
			convPanelRows(dst, wd, src[i*c*area:(i+1)*c*area],
				c, outC, jw, area, j0, i*outC*area+j0, area)
		}
	}
	if units >= 2 && n*c*area*outC >= matMulShardFlops && Workers() > 1 {
		ParallelFor(units, func(_, lo, hi int) { body(lo, hi) })
		return
	}
	body(0, units)
}

// ConvGemmBackward computes both convolution gradients in one fused
// batched pass:
//
//   - dwChunks receives n per-sample weight-gradient chunks, chunk i
//     (outC×(c·kh·kw) row-major, dY_i · col_iᵀ) at
//     dwChunks[i*outC*c*kh*kw:]. Column rows are generated on the fly
//     from src — the per-sample column matrix is never materialized.
//     The caller adds the chunks to the gradient in ascending sample
//     order, preserving the per-sample accumulation the serial
//     GemmTB+AddInPlace loop performed.
//   - dX (n×c×h×w, pre-zeroed by the caller) receives the fused
//     col2im of Wᵀ·dY: each dcol row pair is computed into pooled
//     scratch and scattered into the image immediately, in ascending
//     row order — exactly Col2Im's accumulation order — without a
//     dcol buffer.
//
// Samples are independent, so the batch shards across Workers()
// goroutines above matMulShardFlops; per-sample results are
// bit-identical to the materialized GemmTB / GemmTA+Col2Im composition
// at any worker count. 1×1/stride-1/pad-0 convolutions skip column-row
// generation (src rows are the column rows, zero-copy) and scatter via
// straight row additions.
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
// fused col2im dX of each sample in turn.
func convBackwardSamples(dX, dwChunks, wd, src, dY []float32, c, h, w, outC, kh, kw, stride, pad, outH, outW, lo, hi int) {
	outArea := outH * outW
	k := c * kh * kw
	chw := c * h * w
	outStride := outC * outArea
	fast := kh == 1 && kw == 1 && stride == 1 && pad == 0
	vec := useFast()
	// Scratch: 4 generated column rows for the exact-tier dW quads, 4
	// gathered patch rows for the fast-tier axpy dW, and a k-row dcol
	// block for dX, all from one pooled panel.
	buf := getPanel(4*outArea + 4*k + k*outArea)
	gen := buf.f[:4*outArea]
	patches := buf.f[4*outArea : 4*outArea+4*k]
	sb := buf.f[4*outArea+4*k:]
	// Fast-tier dW dispatch is by shape: the axpy batching streams
	// rank-1 updates over k-length chunk rows, which wins when the dot
	// kernels would pay a horizontal reduction per element over short
	// outArea-length vectors (deep layers, k >= outArea) and loses to
	// chunk-row load/store traffic when outArea dominates (early
	// layers). The predicate depends only on the layer shape, never on
	// data or worker count, so results stay deterministic.
	axpy := vec && k >= outArea
	for i := lo; i < hi; i++ {
		srci := src[i*chw : (i+1)*chw]
		dyi := dY[i*outStride : (i+1)*outStride]
		if axpy {
			convSampleDWAxpy(dwChunks[i*outC*k:(i+1)*outC*k], srci, dyi, patches,
				c, h, w, outC, kh, kw, stride, pad, outH, outW, fast)
		} else {
			convSampleDW(dwChunks[i*outC*k:(i+1)*outC*k], srci, dyi, gen,
				c, h, w, outC, kh, kw, stride, pad, outH, outW, fast, vec)
		}
		convSampleDX(dX[i*chw:(i+1)*chw], wd, dyi, sb,
			c, h, w, outC, kh, kw, stride, pad, outH, outW, fast)
	}
	panelPool.Put(buf)
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
// dY_i · col_iᵀ with column rows generated on demand — the dot-form
// kernel (fast-tier deep shapes with k >= outArea run convSampleDWAxpy
// instead; see convBackwardSamples). The dot-product bodies are
// exactly gemmTBRows' 1×4 and single-column tiles (fastDot4/fastDot on
// the fast tier — the same microkernels the fast GemmTB runs, keeping
// this form bit-identical to the composed oracle within either tier),
// reordered column-quad-outer so each generated row quad is reused
// across every output row — a reordering across output elements only,
// so each element's accumulation sequence is unchanged.
func convSampleDW(chunk, srci, dyi, gen []float32, c, h, w, outC, kh, kw, stride, pad, outH, outW int, fast, vec bool) {
	outArea := outH * outW
	k := c * kh * kw
	kk := kh * kw
	colRow := func(r, slot int) []float32 {
		if fast {
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
			if vec {
				chunk[oc*k+j], chunk[oc*k+j+1], chunk[oc*k+j+2], chunk[oc*k+j+3] =
					fastDot4(arow, b0, b1, b2, b3)
				continue
			}
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
			if vec {
				chunk[oc*k+j] = fastDot(arow, brow)
				continue
			}
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

// convSampleDX computes one sample's input gradient: the dcol block
// Wᵀ·dY_i is produced by gemmTAShard — the exact kernel behind GemmTA,
// so every dcol element accumulates in the reference order with the
// reference zero skips — into a pooled scratch block shared across the
// shard's samples, then scattered into the pre-zeroed image via
// col2imRow in ascending row order, exactly Col2Im's accumulation
// order. No per-layer dcol buffer is retained; 1×1/stride-1/pad-0
// convolutions skip the index arithmetic and add rows directly.
func convSampleDX(dxi, wd, dyi, sb []float32, c, h, w, outC, kh, kw, stride, pad, outH, outW int, fast bool) {
	outArea := outH * outW
	k := c * kh * kw
	kk := kh * kw
	if useFast() {
		// Serial fast variant: this runs inside the per-sample
		// ParallelFor, so it must not fan out again.
		fastGemmTASerial(sb, wd, dyi, outC, k, outArea)
	} else {
		gemmTAShard(sb, wd, dyi, outC, k, outArea, 0, k)
	}
	for r := 0; r < k; r++ {
		s := sb[r*outArea : (r+1)*outArea]
		if fast {
			drow := dxi[r*outArea : (r+1)*outArea]
			for x, v := range s {
				drow[x] += v
			}
			continue
		}
		col2imRow(dxi, s, (r/kk)*h*w, (r%kk)/kw, r%kw, h, w, outH, outW, stride, pad)
	}
}
