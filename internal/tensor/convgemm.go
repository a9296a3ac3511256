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
//     still cache-hot. A panel is a block of output rows whose tap rows
//     the tiles read in place, through a table of row offsets, from
//     the sample's zero-bordered plane (Plane), split by row and column
//     parity into phase planes when the stride is 2 or more
//     (convForwardPhases). A stride-1 conv reads a plane of its own pad
//     where it lies; any other input is copied into pooled phase planes
//     one sample at a time. Work parallelizes across panels, not only
//     across samples. At inference an optional epilogue (ConvEpilogue)
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

// Plane is an n×c×h×w batch in which each channel's h×w image sits
// inside a border of Pad values on every side: element (i, ch, y, x) is
// Data[Offset(i, ch, y, x)] = Data[((i·C + ch)·hp + y+Pad)·wp + x+Pad],
// with hp = H+2·Pad and wp = W+2·Pad. With Pad 0 it is the dense NCHW
// batch. A convolution reads a plane whose border is its own pad in
// place, which needs the border to hold +0, and ConvPlaneForward
// stores only into a plane's interior, so a border of +0 stays +0. A
// plane read in place should be PlaneLen long: the tiles run the last
// block of the last sample up to 7 values past it, into columns that
// are dropped.
type Plane struct {
	Data       []float32
	N, C, H, W int
	Pad        int
}

// PlaneLen returns the length of a buffer for an n×c×h×w plane with a
// border of pad, including the 7 values past the last sample.
func PlaneLen(n, c, h, w, pad int) int {
	return n*c*(h+2*pad)*(w+2*pad) + 7
}

// Offset returns the index of element (i, ch, y, x) in p.Data.
func (p Plane) Offset(i, ch, y, x int) int {
	return ((i*p.C+ch)*(p.H+2*p.Pad)+y+p.Pad)*(p.W+2*p.Pad) + x + p.Pad
}

// sampleLen returns the number of values one sample spans.
func (p Plane) sampleLen() int {
	return p.C * (p.H + 2*p.Pad) * (p.W + 2*p.Pad)
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
	// Residual, when not nil, holds r in the layout of an
	// n×outC×outH×outW plane with a border of ResidualPad (0: dense).
	Residual    []float32
	ResidualPad int
	NoReLU      bool
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
// interior is written. Two paths, by geometry:
//
//   - 1×1/stride-1/pad-0 from and into dense batches: zero-copy. The
//     input already is the column matrix, so the tile kernels read src
//     directly.
//   - Everything else runs on phase planes (convForwardPhases). A
//     stride-1 conv reads src in place when its border is the conv's
//     pad; otherwise each sample is copied once into pooled
//     zero-bordered planes, split into stride² phase planes when the
//     stride is 2 or more.
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
		panic("tensor: ConvGemmForward empty output")
	}
	k := c * kh * kw
	if len(src.Data) < n*src.sampleLen() {
		panic("tensor: ConvGemmForward src too small")
	}
	if len(wd) < outC*k {
		panic("tensor: ConvGemmForward weight too small")
	}
	if len(dst.Data) < n*dst.sampleLen() {
		panic("tensor: ConvGemmForward dst too small")
	}
	if ep != nil {
		if len(ep.Mean) < outC || len(ep.Mul1) < outC || len(ep.Mul2) < outC || len(ep.Beta) < outC {
			panic("tensor: ConvGemmForward epilogue constants too short")
		}
		res := Plane{Data: ep.Residual, N: n, C: outC, H: outH, W: outW, Pad: ep.ResidualPad}
		if ep.Residual != nil && len(ep.Residual) < n*res.sampleLen() {
			panic("tensor: ConvGemmForward residual too small")
		}
	}
	if kh == 1 && kw == 1 && stride == 1 && pad == 0 && src.Pad == 0 && dst.Pad == 0 && (ep == nil || ep.ResidualPad == 0) {
		convForward1x1(dst.Data, wd, src.Data, n, c, outH*outW, outC, ep)
		return
	}
	g := newPhaseGeom(src, kh, kw, stride, pad)
	units := n * g.blocks * g.chunks
	if units >= 2 && n*k*outH*outW*outC >= matMulShardFlops && Workers() > 1 {
		ParallelFor(units, func(_, lo, hi int) {
			convForwardPhases(dst, wd, src, ep, g, lo, hi)
		})
		return
	}
	convForwardPhases(dst, wd, src, ep, g, 0, units)
}

// phaseGeom is the geometry of a convolution run on phase planes. With
// stride s, the zero-bordered plane of a channel (hp × wp, hp = h+2·pad,
// wp = w+2·pad) splits into s² phase planes of hq × wq (hq = ⌈hp/s⌉,
// wq = ⌈wp/s⌉): phase (a, b) holds the plane values at rows ≡ a and
// columns ≡ b (mod s), +0 past the plane. Tap (ky, kx) of output
// (oy, ox) reads plane value (s·oy + ky, s·ox + kx), which is value
// (oy + ky/s, ox + kx/s) of phase (ky mod s, kx mod s), so every tap
// reads a run of its phase plane as a stride-1 tap reads the plane.
// With stride 1 the one phase plane is the plane.
type phaseGeom struct {
	kh, kw, s, pad int
	hq, wq         int
	outH, outW     int
	rows, blocks   int // output rows per unit, row blocks per sample
	cols, chunks   int // output columns per unit, column chunks per row block
	extMax         int // the widest unit's extended columns, rounded up to 8
	inPlace        bool
}

// newPhaseGeom sizes the units of a conv over src. A unit is a block of
// output rows of one sample whose extended run, (rows-1)·wq + outW
// columns rounded up to whole vectors, fits gemmJTile, spread evenly
// over outH; an output row wider than gemmJTile is cut into even chunks
// of columns, one row per unit.
func newPhaseGeom(src Plane, kh, kw, stride, pad int) phaseGeom {
	g := phaseGeom{kh: kh, kw: kw, s: stride, pad: pad,
		hq:      (src.H + 2*pad + stride - 1) / stride,
		wq:      (src.W + 2*pad + stride - 1) / stride,
		outH:    ConvOutSize(src.H, kh, stride, pad),
		outW:    ConvOutSize(src.W, kw, stride, pad),
		inPlace: stride == 1 && src.Pad == pad,
	}
	if g.outW <= gemmJTile {
		g.rows = min((gemmJTile-g.outW)/g.wq+1, g.outH)
		g.blocks = (g.outH + g.rows - 1) / g.rows
		g.rows = (g.outH + g.blocks - 1) / g.blocks
		g.cols, g.chunks = g.outW, 1
	} else {
		g.rows, g.blocks = 1, g.outH
		g.chunks = (g.outW + gemmJTile - 1) / gemmJTile
		g.cols = (g.outW + g.chunks - 1) / g.chunks
	}
	g.extMax = ((g.rows-1)*g.wq + g.cols + 7) &^ 7
	return g
}

// convForwardPhases computes units [lo, hi) of a forward on phase
// planes; unit u covers output rows [oy0, oy1) and columns [ox0, ox1)
// of sample u / (blocks·chunks). There is no gather: in a sample's
// phase planes (channel-major, then row phase, then column phase), the
// patch row of tap (ch, ky, kx) for the unit is the contiguous run of
// ext = (oy1-oy0-1)·wq + (ox1-ox0) values starting at oy0·wq + ox0 +
// offs[p], offs[p] = ((ch·s + ky mod s)·s + kx mod s)·hq·wq +
// (ky/s)·wq + kx/s. The tiles read those runs in place, through that
// table of the k tap offsets, which every unit of the layer shares.
// They run ext rounded up to a multiple of 8 columns wide, so they meet
// no masked tail, whose masked load of an output row waits for the
// previous quad's masked store to retire; a buffer too short for the
// rounded-up run of its last unit (a dense src without slack) runs that
// unit ext wide. Extended column e is output (oy0 + e/wq, ox0 + e mod
// wq) when e mod wq < ox1-ox0 and e < ext; the other columns straddle
// the border or pad the width, and are dropped when the useful columns
// of each row are stored into dst's interior, through the epilogue when
// ep is not nil. The border holds +0, exactly what the Im2Col gather
// writes for an out-of-image tap, so every useful output element meets
// the operands of the gathered composition in the same order and keeps
// its bits.
func convForwardPhases(dst Plane, wd []float32, src Plane, ep *ConvEpilogue, g phaseGeom, lo, hi int) {
	c, outC, s := src.C, dst.C, g.s
	k := c * g.kh * g.kw
	phaseLen := g.hq * g.wq
	sampleLen := c * s * s * phaseLen
	planeLen := 0
	if !g.inPlace {
		planeLen = sampleLen + 7
	}
	buf := getPanel(planeLen + outC*g.extMax)
	plane := buf.f[:planeLen]
	blk := buf.f[planeLen:]
	clear(plane) // the border and the slack; each sample rewrites only the interior
	offs := buf.table(k)
	maxOff := 0
	p := 0
	for ch := 0; ch < c; ch++ {
		for ky := 0; ky < g.kh; ky++ {
			for kx := 0; kx < g.kw; kx++ {
				offs[p] = ((ch*s+ky%s)*s+kx%s)*phaseLen + ky/s*g.wq + kx/s
				maxOff = max(maxOff, offs[p])
				p++
			}
		}
	}
	var res Plane
	if ep != nil && ep.Residual != nil {
		res = Plane{Data: ep.Residual, C: outC, H: g.outH, W: g.outW, Pad: ep.ResidualPad}
	}
	dwp, rwp := dst.W+2*dst.Pad, res.W+2*res.Pad
	per := g.blocks * g.chunks
	filled := -1
	for u := lo; u < hi; u++ {
		i, b := u/per, u%per
		oy0, ox0 := b/g.chunks*g.rows, b%g.chunks*g.cols
		oy1, ox1 := min(oy0+g.rows, g.outH), min(ox0+g.cols, g.outW)
		var pb []float32
		if g.inPlace {
			pb = src.Data[i*sampleLen:]
		} else {
			if i != filled {
				x := src.Data[i*src.sampleLen():]
				if s == 1 {
					toPlane(plane, x, src.Pad, c, src.H, src.W, g.pad)
				} else {
					toPhases(plane, x, src.Pad, c, src.H, src.W, s, g.pad, g.hq, g.wq)
				}
				filled = i
			}
			pb = plane
		}
		pb = pb[oy0*g.wq+ox0:]
		rows, cols := oy1-oy0, ox1-ox0
		ext := (rows-1)*g.wq + cols
		jw := (ext + 7) &^ 7
		if maxOff+jw > len(pb) {
			jw = ext
		}
		_ = pb[maxOff+jw-1] // every tap's run; the table does not ascend when s > 1
		convPanelRows(blk, wd, pb, offs, outC, jw, 0, jw)
		for oc := 0; oc < outC; oc++ {
			run := blk[oc*jw:]
			o := dst.Offset(i, oc, oy0, ox0)
			if ep == nil {
				for y := 0; y < rows; y++ {
					copy(dst.Data[o+y*dwp:][:cols], run[y*g.wq:])
				}
				continue
			}
			var r []float32
			if res.Data != nil {
				r = res.Data[res.Offset(i, oc, oy0, ox0):]
			}
			ep.apply(dst.Data[o:], run, r, oc, rows, cols, dwp, g.wq, rwp)
		}
	}
	panelPool.Put(buf)
}

// convPanelRows runs the 2-row register tiles of matmul.go over all
// outC weight rows for one panel: output row oc lands at
// od[base+oc*orStride : +jw], and panel row p is read at
// pb[offs[p] : +jw]. Reusing Gemm's tiles (exactTile2/exactTile1)
// verbatim is what makes the fused path's per-element operation
// sequence identical to Gemm's.
func convPanelRows(od, wd, pb []float32, offs []int, outC, jw, base, orStride int) {
	k := len(offs)
	i := 0
	for ; i+2 <= outC; i += 2 {
		exactTile2(od[base+i*orStride:base+i*orStride+jw],
			od[base+(i+1)*orStride:base+(i+1)*orStride+jw],
			wd[i*k:i*k+k], wd[(i+1)*k:(i+1)*k+k], pb, offs, jw)
	}
	for ; i < outC; i++ {
		exactTile1(od[base+i*orStride:base+i*orStride+jw], wd[i*k:i*k+k], pb, offs, jw)
	}
}

// convForward1x1 is the zero-copy fast path for 1×1/stride-1/pad-0
// convolutions: sample i's column matrix IS its input plane block
// (c × area, row-major), so the tile kernels read src directly with
// panel rows area apart. Panels tile each sample's area columns;
// work parallelizes across (sample, panel) units.
func convForward1x1(dst, wd, src []float32, n, c, area, outC int, ep *ConvEpilogue) {
	if area == 0 {
		return
	}
	perSample := (area + gemmJTile - 1) / gemmJTile
	units := n * perSample
	body := func(lo, hi int) {
		tb := getPanel(0)
		offs := tb.strideTable(c, area)
		for u := lo; u < hi; u++ {
			i, pi := u/perSample, u%perSample
			j0 := pi * gemmJTile
			jw := area - j0
			if jw > gemmJTile {
				jw = gemmJTile
			}
			base := i*outC*area + j0
			convPanelRows(dst, wd, src[i*c*area+j0:(i+1)*c*area], offs, outC, jw, base, area)
			if ep != nil {
				for oc := 0; oc < outC; oc++ {
					o := base + oc*area
					ep.apply(dst[o:], dst[o:], ep.residual(o), oc, 1, jw, jw, jw, jw)
				}
			}
		}
		panelPool.Put(tb)
	}
	if units >= 2 && n*c*area*outC >= matMulShardFlops && Workers() > 1 {
		ParallelFor(units, func(_, lo, hi int) { body(lo, hi) })
		return
	}
	body(0, units)
}

// residual returns the dense residual from element o on, or nil when
// there is none.
func (ep *ConvEpilogue) residual(o int) []float32 {
	if ep.Residual == nil {
		return nil
	}
	return ep.Residual[o:]
}

// apply stores rows runs of n epilogue outputs of channel oc: run y
// reads src[y·ss:] and writes dst[y·ds:], adding res[y·rs:] when res is
// not nil. src may be dst (ss = ds).
func (ep *ConvEpilogue) apply(dst, src, res []float32, oc, rows, n, ds, ss, rs int) {
	if avxSupported {
		avxEpilogue(dst, src, res, rows, n, ds, ss, rs, ep.Mean[oc], ep.Mul1[oc], ep.Mul2[oc], ep.Beta[oc], !ep.NoReLU)
		return
	}
	epilogueLoop(dst, src, res, rows, n, ds, ss, rs, ep.Mean[oc], ep.Mul1[oc], ep.Mul2[oc], ep.Beta[oc], !ep.NoReLU)
}

// epilogueLoop is the epilogue in Go: the reference the AVX kernel is
// tested against, and the path of builds and CPUs without AVX. Run y
// reads src[y·ss:], adds res[y·rs:] when res is not nil and writes
// dst[y·ds:], n values each. Each product is converted to float32
// before the next operation, so no compiler fuses ·mul2 + beta into one
// rounding.
func epilogueLoop(dst, src, res []float32, rows, n, ds, ss, rs int, mean, mul1, mul2, beta float32, relu bool) {
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
	if ep.Residual != nil {
		if ep.ResidualPad != 0 {
			panic("tensor: ConvEpilogue.Apply residual must be dense")
		}
		checkBatch("ConvEpilogue.Apply", ep.Residual, n, c, area)
	}
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			o := (i*c + ch) * area
			ep.apply(dst[o:], src[o:], ep.residual(o), ch, 1, area, area, area, area)
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

// toPlane copies the c×h×w sample x, whose images have a border of
// xPad (0: dense), into the interior of the zero-bordered plane
// (c × (h+2·pad) × (w+2·pad)), leaving the border as it is.
func toPlane(plane, x []float32, xPad, c, h, w, pad int) {
	hp, wp := h+2*pad, w+2*pad
	xh, xw := h+2*xPad, w+2*xPad
	for ch := 0; ch < c; ch++ {
		for y := 0; y < h; y++ {
			copy(plane[(ch*hp+y+pad)*wp+pad:][:w], x[(ch*xh+y+xPad)*xw+xPad:][:w])
		}
	}
}

// toPhases is toPlane for a stride-s conv (s ≥ 2): it copies the
// sample's values into the interiors of the s² phase planes of its
// zero-bordered plane (see phaseGeom), each hq × wq, channel-major,
// then by row phase, then by column phase. Plane value (r, q) =
// (y+pad, x+pad) lands in phase plane (r mod s, q mod s) at (r/s, q/s).
// The positions it writes are the same for every sample, so a border
// cleared once stays +0.
func toPhases(ph, x []float32, xPad, c, h, w, s, pad, hq, wq int) {
	xh, xw := h+2*xPad, w+2*xPad
	phaseLen := hq * wq
	for b := 0; b < s; b++ {
		x0 := ((b-pad)%s + s) % s // the first column whose plane column is ≡ b
		if x0 >= w {
			continue
		}
		cnt := (w - x0 + s - 1) / s
		q0 := b*phaseLen + (x0+pad)/s
		for ch := 0; ch < c; ch++ {
			a, qy := pad%s, pad/s // row y's row phase and phase row
			for y := 0; y < h; y++ {
				row := x[(ch*xh+y+xPad)*xw+xPad+x0:]
				d := ph[(ch*s+a)*s*phaseLen+qy*wq+q0:][:cnt]
				for j := range d {
					d[j] = row[j*s]
				}
				if a++; a == s {
					a, qy = 0, qy+1
				}
			}
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
		toPlane(plane, srci, 0, c, h, w, pad)
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
