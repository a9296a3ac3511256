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
//     still cache-hot. A stride-1 panel is a block of output rows
//     read from a zero-bordered copy of the sample, one contiguous run
//     per tap, with no gather (convForwardPlanes); strided
//     convolutions gather their patches (im2colSeg). Work parallelizes
//     across panels, not only across samples.
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
// Batching, panel regrouping and the extended stride-1 panels only
// change which elements are computed together, never the operands or
// the operation sequence of one element;
// convgemm_test.go pins this against the materialized composition as
// the bitwise oracle across a shape grid, a fuzz target, and several
// worker counts.

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
//   - Other stride-1 convolutions with outW <= gemmJTile: gather-free
//     (convForwardPlanes). Each sample is copied once into a
//     zero-bordered plane in which every tap's patch row is one
//     contiguous run.
//   - Strided convolutions, and stride-1 ones with wider output rows:
//     input patches are gathered into pooled column panels
//     (im2colSeg) and consumed while cache-hot.
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
	if stride == 1 && outW <= gemmJTile {
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
			toPlane(plane, src[i*chw:(i+1)*chw], c, h, w, pad)
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
//   - dX (n×c×h×w, pre-zeroed by the caller) receives the col2im of
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
// dX of each sample in turn.
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
	// dot loops.
	buf := getPanel(2*planeLen + kp*outArea + outC*kp + 4*outArea)
	f := buf.f
	plane, f := f[:planeLen], f[planeLen:]
	dxPlane, f := f[:planeLen], f[planeLen:]
	blk, f := f[:kp*outArea], f[kp*outArea:]
	tileChunk, gen := f[:outC*kp], f[outC*kp:]
	clear(plane) // the border; each sample rewrites only the interior
	pointwise := kh == 1 && kw == 1 && stride == 1 && pad == 0
	for i := lo; i < hi; i++ {
		srci := src[i*chw : (i+1)*chw]
		dyi := dY[i*outStride : (i+1)*outStride]
		chunk := dwChunks[i*outC*k : (i+1)*outC*k]
		if avxSupported {
			convSampleDWTiles(chunk, srci, dyi, blk, tileChunk, plane, c, h, w, outC, kh, kw, stride, pad, outH, outW)
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
// scattered into the pre-zeroed dxi in ascending row order, exactly
// Col2Im's accumulation order. A stride-1 convolution scatters into
// the zero-bordered dxPlane, one outW-long run add per output row, and
// copies its interior out; the out-of-image taps land in the border,
// which is Col2Im dropping them. Strided convolutions scatter with
// col2imRow.
func convSampleDX(dxi, wd, dyi, dcol, dxPlane []float32, c, h, w, outC, kh, kw, stride, pad, outH, outW int) {
	outArea := outH * outW
	k := c * kh * kw
	exactTAShard(dcol, wd, dyi, outC, k, outArea, 0, k)
	if stride != 1 {
		kk := kh * kw
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
// for y < rows and x < n.
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
// k rounded up to 8 apart, and the tiles run kp wide into the outC × kp
// scratch tc, whose first k columns are then the chunk: at a width of
// whole vectors the tiles run no masked tail, whose masked load of an
// output row would wait for the previous quad's masked store to
// retire. The padding columns hold stale values and give stale
// results, which are not copied out.
func convSampleDWTiles(chunk, srci, dyi, panel, tc, plane []float32, c, h, w, outC, kh, kw, stride, pad, outH, outW int) {
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
	oc := 0
	for ; oc+2 <= outC; oc += 2 {
		avxTile2(tc[oc*kp:(oc+1)*kp], tc[(oc+1)*kp:(oc+2)*kp],
			dyi[oc*outArea:(oc+1)*outArea], dyi[(oc+1)*outArea:(oc+2)*outArea], panel, kp, kp, 0, false)
	}
	if oc < outC {
		avxTile1(tc[oc*kp:(oc+1)*kp], dyi[oc*outArea:(oc+1)*outArea], panel, kp, kp, 0, false)
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
