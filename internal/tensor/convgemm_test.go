package tensor

import (
	"fmt"
	"math"
	"testing"
)

// The fused implicit-GEMM convolution must be bitwise-equal to the
// materialized Im2Col+Gemm composition it replaced — the same contract
// matmul_oracle_test.go enforces one layer down. The composition of
// exported kernels (Im2Col, Gemm, GemmTB, GemmTA, Col2Im), run at one
// worker, is the oracle here.

// convShape is one point of the conv oracle grid.
type convShape struct {
	n, c, h, w, outC, kh, kw, stride, pad int
}

// convShapes stresses every structural regime of the fused kernels:
// 1×1 kernels with and without stride, pad ≥ kernel (taps that never
// touch the image), strides 2–3, non-square 5×5, 2×2 and 2×3 kernels,
// k%4 tails, small planes (outArea ≪ gemmJTile), stride-1 planes split
// into several row blocks (outArea > gemmJTile, the 32×32 paper shape
// among them), and a stride-1 output row wider than gemmJTile, which
// is cut into column chunks.
var convShapes = []convShape{
	{1, 1, 3, 3, 1, 1, 1, 1, 0},     // minimal 1×1
	{2, 3, 8, 8, 4, 1, 1, 1, 0},     // 1×1, k%4 tail (c=3)
	{3, 4, 9, 9, 5, 1, 1, 2, 0},     // 1×1 with stride
	{2, 2, 6, 6, 3, 3, 3, 1, 1},     // classic 3×3 same-pad
	{2, 3, 7, 5, 4, 3, 3, 1, 3},     // pad == kernel
	{1, 2, 5, 5, 2, 3, 3, 1, 4},     // pad > kernel
	{2, 2, 11, 11, 3, 5, 5, 2, 2},   // 5×5 stride 2
	{2, 3, 10, 10, 4, 2, 2, 2, 0},   // 2×2 stride 2, no pad
	{1, 1, 13, 13, 2, 3, 3, 3, 1},   // stride 3
	{30, 2, 7, 7, 3, 3, 3, 1, 0},    // outArea=25: panels span samples
	{2, 2, 20, 20, 3, 3, 3, 1, 1},   // outArea=400: ragged in-sample panels
	{4, 16, 32, 32, 16, 3, 3, 1, 1}, // paper shape (batch trimmed)
	{2, 3, 9, 7, 5, 2, 3, 1, 1},     // 2×3 kernel, stride 1
	{1, 2, 3, 260, 3, 3, 3, 1, 1},   // outW=260 > gemmJTile: column chunks
	{3, 2, 3, 260, 3, 3, 3, 1, 1},   // the same, one sample per dense group
	{2, 3, 9, 7, 4, 3, 3, 2, 1},     // stride 2 on odd planes: phase rows
	{1, 2, 5, 520, 3, 3, 3, 2, 1},   // stride 2, outW=260 > gemmJTile
	// The repro ResNet-20 ×0.25's training convs at an odd batch, which
	// splits into uneven sample groups at 2 and 4 workers.
	{33, 3, 12, 12, 4, 3, 3, 1, 1}, // the stem
	{33, 8, 6, 6, 16, 3, 3, 2, 1},  // stride 2
	{33, 16, 3, 3, 16, 3, 3, 1, 1}, // stage 3
}

// convOracleData builds deterministic (weight, src, dY) buffers for a
// shape. The weight matrix — the GEMM's A operand, whose quads drive
// the skip-zero fast paths — gets the same zero sprinkling, all-zero
// row, and negative zero as oraclePair so skips and accumulation-order
// changes stay observable.
func convOracleData(seed uint64, s convShape) (wd, src, dY []float32) {
	outH := ConvOutSize(s.h, s.kh, s.stride, s.pad)
	outW := ConvOutSize(s.w, s.kw, s.stride, s.pad)
	k := s.c * s.kh * s.kw
	rng := NewRNG(seed)
	wt := New(s.outC, k)
	FillNormal(wt, rng, 0, 1)
	wd = wt.Data()
	for i := 0; i < len(wd); i += 3 {
		wd[i] = 0
	}
	if s.outC > 2 {
		row := wd[2*k : 3*k]
		for i := range row {
			row[i] = 0
		}
	}
	if len(wd) > 1 {
		wd[1] = float32(math32Copysign(0, -1))
	}
	st := New(s.n, s.c, s.h, s.w)
	FillNormal(st, rng, 0, 1)
	src = st.Data()
	dt := New(s.n, s.outC, outH, outW)
	FillNormal(dt, rng, 0, 1)
	return wd, src, dt.Data()
}

// refConvForward is the materialized oracle: per-sample Im2Col into a
// scratch column matrix followed by Gemm — exactly the composition
// nn.Conv2D.Forward performed before the implicit-GEMM path existed.
func refConvForward(wd, src []float32, s convShape) []float32 {
	outH := ConvOutSize(s.h, s.kh, s.stride, s.pad)
	outW := ConvOutSize(s.w, s.kw, s.stride, s.pad)
	outArea := outH * outW
	k := s.c * s.kh * s.kw
	col := make([]float32, k*outArea)
	dst := make([]float32, s.n*s.outC*outArea)
	for i := 0; i < s.n; i++ {
		Im2Col(src[i*s.c*s.h*s.w:(i+1)*s.c*s.h*s.w],
			s.c, s.h, s.w, s.kh, s.kw, s.stride, s.pad, col)
		Gemm(dst[i*s.outC*outArea:(i+1)*s.outC*outArea], wd, col, s.outC, k, outArea)
	}
	return dst
}

// refConvBackward is the materialized backward oracle: per sample,
// GemmTB for the dW chunk and GemmTA+Col2Im for dX, chunks added to
// the gradient in ascending sample order — the pre-fusion
// nn.Conv2D.Backward loop.
func refConvBackward(wd, src, dY []float32, s convShape) (dW, dX []float32) {
	outH := ConvOutSize(s.h, s.kh, s.stride, s.pad)
	outW := ConvOutSize(s.w, s.kw, s.stride, s.pad)
	outArea := outH * outW
	k := s.c * s.kh * s.kw
	chw := s.c * s.h * s.w
	col := make([]float32, k*outArea)
	dcol := make([]float32, k*outArea)
	chunk := make([]float32, s.outC*k)
	dW = make([]float32, s.outC*k)
	dX = make([]float32, s.n*chw)
	for i := 0; i < s.n; i++ {
		Im2Col(src[i*chw:(i+1)*chw], s.c, s.h, s.w, s.kh, s.kw, s.stride, s.pad, col)
		dyi := dY[i*s.outC*outArea : (i+1)*s.outC*outArea]
		GemmTB(chunk, dyi, col, s.outC, outArea, k)
		for j, v := range chunk {
			dW[j] += v
		}
		GemmTA(dcol, wd, dyi, s.outC, k, outArea)
		Col2Im(dcol, s.c, s.h, s.w, s.kh, s.kw, s.stride, s.pad, dX[i*chw:(i+1)*chw])
	}
	return dW, dX
}

// Im2Col is the oracles' lowering: one CHW image into a (C·kh·kw) ×
// (outH·outW) column matrix stored row-major in dst, the standard
// lowering that turns a convolution into a GEMM. src holds C·H·W
// elements; dst must hold C·kh·kw·outH·outW elements. Out-of-bounds
// taps read as zero (zero padding).
func Im2Col(src []float32, c, h, w, kh, kw, stride, pad int, dst []float32) {
	outH := ConvOutSize(h, kh, stride, pad)
	outW := ConvOutSize(w, kw, stride, pad)
	outArea := outH * outW
	if len(src) < c*h*w {
		panic("tensor: Im2Col src too small")
	}
	if len(dst) < c*kh*kw*outArea {
		panic("tensor: Im2Col dst too small")
	}
	row := 0
	for ch := 0; ch < c; ch++ {
		chBase := ch * h * w
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				im2colRow(dst[row*outArea:(row+1)*outArea], src,
					chBase, ky, kx, h, w, outH, outW, stride, pad)
				row++
			}
		}
	}
}

// Col2Im is Im2Col's adjoint: it scatters a column matrix back into a
// CHW image, accumulating where patches overlap. dst (C·H·W) is
// expected to be pre-zeroed by the caller when a fresh gradient is
// wanted.
func Col2Im(col []float32, c, h, w, kh, kw, stride, pad int, dst []float32) {
	outH := ConvOutSize(h, kh, stride, pad)
	outW := ConvOutSize(w, kw, stride, pad)
	outArea := outH * outW
	if len(dst) < c*h*w {
		panic("tensor: Col2Im dst too small")
	}
	if len(col) < c*kh*kw*outArea {
		panic("tensor: Col2Im col too small")
	}
	row := 0
	for ch := 0; ch < c; ch++ {
		chBase := ch * h * w
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				col2imRow(dst, col[row*outArea:(row+1)*outArea],
					chBase, ky, kx, h, w, outH, outW, stride, pad)
				row++
			}
		}
	}
}

// convSkipWitnesses adds the skip witnesses to conv oracle data. The
// weight matrix (outC×k) is the coefficient side. Each image is the B
// side; an image value feeds up to kh·kw outputs per channel, so
// specials in half the columns would leave few finite outputs, and
// each sample gets one +Inf, one -Inf and one NaN instead.
// convOracleData's all-zero weight row 2 then yields NaN at those
// positions if a zero quad is multiplied instead of skipped.
func convSkipWitnesses(seed uint64, wd, src []float32, s convShape) {
	skipWitnesses(wd, s.outC, s.c*s.kh*s.kw)
	plantPerSample(seed, src, s.n, s.c*s.h*s.w)
}

// plantPerSample writes +Inf, -Inf and NaN at seeded positions of each
// of the n equal per-sample blocks of x (per elements each).
func plantPerSample(seed uint64, x []float32, n, per int) {
	rng := NewRNG(seed)
	inf := float32(math.Inf(1))
	for i := 0; i < n; i++ {
		for _, v := range []float32{inf, -inf, float32(math.NaN())} {
			x[i*per+int(rng.Uint64()%uint64(per))] = v
		}
	}
}

// backwardSkipWitnesses adds the conv witnesses to the backward
// operands, and specials to dY (the B side of the dX product). The dW
// dot skips nothing, so it needs the opposite witness: output channel 1
// of every sample gets an all-zero dY row, whose zero quads and singles
// meet the ±Inf and NaN planted in src, where 0·Inf makes NaN and a
// skip would not.
func backwardSkipWitnesses(seed uint64, wd, src, dY []float32, s convShape) {
	outArea := ConvOutSize(s.h, s.kh, s.stride, s.pad) * ConvOutSize(s.w, s.kw, s.stride, s.pad)
	convSkipWitnesses(seed, wd, src, s)
	plantPerSample(seed^0x5EED, dY, s.n, s.outC*outArea)
	if s.outC >= 2 {
		for i := 0; i < s.n; i++ {
			clear(dY[(i*s.outC+1)*outArea : (i*s.outC+2)*outArea])
		}
	}
}

func (s convShape) String() string {
	return fmt.Sprintf("n%d_c%d_%dx%d_oc%d_k%dx%d_s%d_p%d",
		s.n, s.c, s.h, s.w, s.outC, s.kh, s.kw, s.stride, s.pad)
}

// checkConvDW compares a fused dW against the GemmTB oracle, bit for
// bit.
func checkConvDW(t *testing.T, want, got []float32) {
	t.Helper()
	if i := exactMismatch(want, got); i >= 0 {
		t.Fatalf("fused dW differs from GemmTB oracle at %d: %v vs %v", i, got[i], want[i])
	}
}

func TestConvGemmForwardMatchesOracleBitwise(t *testing.T) {
	for _, s := range convShapes {
		t.Run(s.String(), func(t *testing.T) {
			wd, src, _ := convOracleData(0xC0117, s)
			convSkipWitnesses(0xC0117, wd, src, s)
			var want []float32
			withWorkers(1, func() { want = refConvForward(wd, src, s) })
			for _, w := range []int{1, 2, 4} {
				withWorkers(w, func() {
					got := make([]float32, len(want))
					for i := range got {
						got[i] = 999
					}
					ConvGemmForward(got, wd, src, s.n, s.c, s.h, s.w, s.outC, s.kh, s.kw, s.stride, s.pad)
					if i := exactMismatch(want, got); i >= 0 {
						t.Fatalf("workers=%d: fused forward differs from Im2Col+Gemm oracle at %d", w, i)
					}
				})
			}
		})
	}
}

func TestConvGemmBackwardMatchesOracleBitwise(t *testing.T) {
	for _, s := range convShapes {
		t.Run(s.String(), func(t *testing.T) {
			wd, src, dY := convOracleData(0xBAC1, s)
			backwardSkipWitnesses(0xBAC1, wd, src, dY, s)
			var wantDW, wantDX []float32
			withWorkers(1, func() { wantDW, wantDX = refConvBackward(wd, src, dY, s) })
			k := s.c * s.kh * s.kw
			wlen := s.outC * k
			for _, w := range []int{1, 2, 4} {
				withWorkers(w, func() {
					dX := make([]float32, len(wantDX))
					chunks := make([]float32, s.n*wlen)
					ConvGemmBackward(dX, chunks, wd, src, dY, s.n, s.c, s.h, s.w, s.outC, s.kh, s.kw, s.stride, s.pad)
					dW := make([]float32, wlen)
					for i := 0; i < s.n; i++ {
						for j, v := range chunks[i*wlen : (i+1)*wlen] {
							dW[j] += v
						}
					}
					checkConvDW(t, wantDW, dW)
					if i := exactMismatch(wantDX, dX); i >= 0 {
						t.Fatalf("workers=%d: fused dX differs from GemmTA+Col2Im oracle at %d", w, i)
					}
				})
			}
		})
	}
}

// refEpilogue applies batch norm's inference transform, the residual
// (when not nil) and a ReLU to a conv output in place, one layer after
// another, with the statements of nn.BatchNorm2D.Forward,
// Tensor.AddInPlace and nn.ReLU.Forward.
func refEpilogue(out []float32, ep *ConvEpilogue, outC, outArea int) {
	for j := range out {
		oc := (j / outArea) % outC
		out[j] = float32(ep.Mul1[oc]*(out[j]-ep.Mean[oc])*ep.Mul2[oc]) + ep.Beta[oc]
	}
	if r := ep.Residual.Data; r != nil {
		for j := range out {
			out[j] += r[j]
		}
	}
	for j, v := range out {
		if !(v > 0) {
			out[j] = 0
		}
	}
}

// seededEpilogue returns seeded batch-norm constants for the output
// channels of s and the dense residual res, with ±Inf and NaN planted
// in it.
func seededEpilogue(seed uint64, s convShape, res []float32) *ConvEpilogue {
	plantPerSample(seed, res, 1, len(res))
	outC := s.outC
	consts := New(4, outC)
	FillNormal(consts, NewRNG(seed^0xE9), 0, 1)
	cd := consts.Data()
	ep := &ConvEpilogue{Mean: cd[:outC], Mul1: cd[outC : 2*outC], Mul2: cd[2*outC : 3*outC], Beta: cd[3*outC:], Residual: s.outPlane(res)}
	for oc, v := range ep.Mul2 {
		ep.Mul2[oc] = float32(1 / math.Sqrt(float64(v*v)+1e-5))
	}
	return ep
}

// TestConvEpilogueApplyUsesEachChannelsConstants: Apply over an NCHW
// batch (the training forward's normalize pass) gives every element
// its own channel's constants and residual, with and without the ReLU,
// bit for bit the epilogue's operation sequence.
func TestConvEpilogueApplyUsesEachChannelsConstants(t *testing.T) {
	const n, c, area = 3, 5, 7
	r := NewRNG(0xA9)
	src, res, consts := New(n, c, area), New(n, c, area), New(4, c)
	FillNormal(src, r, 0, 2)
	FillNormal(res, r, 0, 1)
	FillNormal(consts, r, 0, 1)
	cd := consts.Data()
	for _, withRes := range []bool{false, true} {
		for _, noReLU := range []bool{false, true} {
			ep := &ConvEpilogue{Mean: cd[:c], Mul1: cd[c : 2*c], Mul2: cd[2*c : 3*c], Beta: cd[3*c:], NoReLU: noReLU}
			if withRes {
				ep.Residual = Plane{Data: res.Data(), N: n, C: c, H: 1, W: area}
			}
			got := make([]float32, n*c*area)
			ep.Apply(got, src.Data(), n, c, area)
			for j, x := range src.Data() {
				oc := (j / area) % c
				v := float32(float32((x-ep.Mean[oc])*ep.Mul1[oc])*ep.Mul2[oc]) + ep.Beta[oc]
				if withRes {
					v += res.Data()[j]
				}
				if !noReLU && !(v > 0) {
					v = 0
				}
				if math.Float32bits(got[j]) != math.Float32bits(v) {
					t.Fatalf("residual=%t noReLU=%t: element %d (channel %d) = %v, want %v", withRes, noReLU, j, oc, got[j], v)
				}
			}
		}
	}
}

// TestConvGemmForwardEpilogueMatchesLayers pins the epilogue on every
// grid shape to the conv followed by the separate layers, with and
// without a residual, at several worker counts.
func TestConvGemmForwardEpilogueMatchesLayers(t *testing.T) {
	for _, s := range convShapes {
		t.Run(s.String(), func(t *testing.T) {
			wd, src, res := convOracleData(0xE91, s)
			convSkipWitnesses(0xE91, wd, src, s)
			outArea := len(res) / (s.n * s.outC)
			ep := seededEpilogue(0xE92, s, res)
			for _, r := range []Plane{{}, s.outPlane(res)} {
				ep.Residual = r
				want := make([]float32, len(res))
				withWorkers(1, func() {
					ConvGemmForward(want, wd, src, s.n, s.c, s.h, s.w, s.outC, s.kh, s.kw, s.stride, s.pad)
				})
				refEpilogue(want, ep, s.outC, outArea)
				for _, w := range []int{1, 2, 4} {
					withWorkers(w, func() {
						got := make([]float32, len(want))
						for i := range got {
							got[i] = 999
						}
						ConvGemmForwardEpilogue(got, wd, src, s.n, s.c, s.h, s.w, s.outC, s.kh, s.kw, s.stride, s.pad, ep)
						if i := exactMismatch(want, got); i >= 0 {
							t.Fatalf("workers=%d residual=%t: fused epilogue differs from the layers at %d: %v, want %v", w, r.Data != nil, i, got[i], want[i])
						}
					})
				}
			}
		})
	}
}

// TestConvGemmBackwardPointwiseMatchesOracle pins the backward of a
// 1×1/stride-1/pad-0 conv, whose dW reads the input plane as its
// column rows where the CPU lacks AVX (the pointwise flag, chosen
// inside convBackwardSamples), to the materialized oracle.
func TestConvGemmBackwardPointwiseMatchesOracle(t *testing.T) {
	s := convShape{3, 5, 9, 9, 4, 1, 1, 1, 0}
	wd, src, dY := convOracleData(0x1F1, s)
	convSkipWitnesses(0x1F1, wd, src, s)
	area := s.h * s.w
	wantDW, wantDX := refConvBackward(wd, src, dY, s)
	dX := make([]float32, len(wantDX))
	chunks := make([]float32, s.n*s.outC*s.c)
	ConvGemmBackward(dX, chunks, wd, src, dY, s.n, s.c, s.h, s.w, s.outC, 1, 1, 1, 0)
	dW := make([]float32, s.outC*s.c)
	for i := 0; i < s.n; i++ {
		for j, v := range chunks[i*len(dW) : (i+1)*len(dW)] {
			dW[j] += v
		}
	}
	checkConvDW(t, wantDW, dW)
	if !FromSlice(dX, s.n, s.c*area).Equal(FromSlice(wantDX, s.n, s.c*area)) {
		t.Fatalf("1x1 backward dX differs from oracle")
	}
}

// FuzzConvGemmOracle drives the fused forward and backward against the
// materialized composition on fuzz-chosen shapes, including pad ≥
// kernel and degenerate strides.
func FuzzConvGemmOracle(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(3), uint8(8), uint8(4), uint8(3), uint8(1), uint8(1))
	f.Add(uint64(2), uint8(4), uint8(1), uint8(5), uint8(2), uint8(1), uint8(1), uint8(0))
	f.Add(uint64(3), uint8(30), uint8(2), uint8(7), uint8(3), uint8(3), uint8(1), uint8(4))
	f.Add(uint64(4), uint8(2), uint8(2), uint8(19), uint8(3), uint8(5), uint8(3), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, cRaw, hwRaw, ocRaw, kRaw, strideRaw, padRaw uint8) {
		s := convShape{
			n:      int(nRaw)%32 + 1,
			c:      int(cRaw)%5 + 1,
			h:      int(hwRaw)%20 + 1,
			outC:   int(ocRaw)%6 + 1,
			kh:     int(kRaw)%5 + 1,
			stride: int(strideRaw)%3 + 1,
			pad:    int(padRaw) % 6,
		}
		s.w = s.h
		s.kw = s.kh
		if s.h+2*s.pad < s.kh {
			t.Skip("empty output")
		}
		wd, src, dY := convOracleData(seed, s)
		fwdSrc := append([]float32(nil), src...)
		fwdW := append([]float32(nil), wd...)
		convSkipWitnesses(seed, fwdW, fwdSrc, s)
		want := refConvForward(fwdW, fwdSrc, s)
		got := make([]float32, len(want))
		ConvGemmForward(got, fwdW, fwdSrc, s.n, s.c, s.h, s.w, s.outC, s.kh, s.kw, s.stride, s.pad)
		if i := exactMismatch(want, got); i >= 0 {
			t.Fatalf("forward mismatch at %d for %v seed %d", i, s, seed)
		}
		ep := seededEpilogue(seed, s, append([]float32(nil), dY...))
		refEpilogue(want, ep, s.outC, len(want)/(s.n*s.outC))
		ConvGemmForwardEpilogue(got, fwdW, fwdSrc, s.n, s.c, s.h, s.w, s.outC, s.kh, s.kw, s.stride, s.pad, ep)
		if i := exactMismatch(want, got); i >= 0 {
			t.Fatalf("epilogue mismatch at %d for %v seed %d", i, s, seed)
		}
		pads := int(seed>>8) % 27
		spans := int(seed>>16) % 8 // the batch-row bits of src, dst and the residual
		layout := func(pad, bit int) planeLayout {
			if spans>>bit&1 == 0 {
				return planeLayout{} // dense
			}
			return planeLayout{pad: pad, span: s.n + bit}
		}
		runPlaneForward(t, fmt.Sprintf("%v seed %d", s, seed), s, fwdW, fwdSrc, ep, want,
			layout(pads%3, 0), layout(pads/3%3, 1), layout(pads/9, 2), false)
		backwardSkipWitnesses(seed, wd, src, dY, s)
		wantDW, wantDX := refConvBackward(wd, src, dY, s)
		k := s.c * s.kh * s.kw
		wlen := s.outC * k
		dX := make([]float32, len(wantDX))
		chunks := make([]float32, s.n*wlen)
		ConvGemmBackward(dX, chunks, wd, src, dY, s.n, s.c, s.h, s.w, s.outC, s.kh, s.kw, s.stride, s.pad)
		dW := make([]float32, wlen)
		for i := 0; i < s.n; i++ {
			for j, v := range chunks[i*wlen : (i+1)*wlen] {
				dW[j] += v
			}
		}
		checkConvDW(t, wantDW, dW)
		if i := exactMismatch(wantDX, dX); i >= 0 {
			t.Fatalf("dX mismatch at %d for %v seed %d", i, s, seed)
		}
	})
}

// benchConvShape/benchConvShape12: the paper's 32×32 input shape and
// the repro-scale 12×12 shape used by the training loop benches.
var (
	benchConv32   = convShape{16, 16, 32, 32, 16, 3, 3, 1, 1}
	benchConv12   = convShape{32, 4, 12, 12, 4, 3, 3, 1, 1}
	benchConv1x1  = convShape{16, 32, 16, 16, 32, 1, 1, 1, 0}
	benchConvDeep = convShape{16, 64, 8, 8, 64, 3, 3, 1, 1}
)

func benchConvFwd(b *testing.B, s convShape, fused bool) {
	wd, src, _ := convOracleData(1, s)
	outArea := ConvOutSize(s.h, s.kh, s.stride, s.pad) * ConvOutSize(s.w, s.kw, s.stride, s.pad)
	dst := make([]float32, s.n*s.outC*outArea)
	withWorkers(1, func() {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if fused {
				ConvGemmForward(dst, wd, src, s.n, s.c, s.h, s.w, s.outC, s.kh, s.kw, s.stride, s.pad)
			} else {
				refConvForward2(dst, wd, src, s)
			}
		}
	})
}

// refConvForward2 is refConvForward with a caller-owned destination and
// persistent scratch, so the Ref benchmarks measure the materialized
// composition's compute, not allocation.
var refColScratch []float32

func refConvForward2(dst, wd, src []float32, s convShape) {
	outH := ConvOutSize(s.h, s.kh, s.stride, s.pad)
	outW := ConvOutSize(s.w, s.kw, s.stride, s.pad)
	outArea := outH * outW
	k := s.c * s.kh * s.kw
	if len(refColScratch) < k*outArea {
		refColScratch = make([]float32, k*outArea)
	}
	col := refColScratch[:k*outArea]
	for i := 0; i < s.n; i++ {
		Im2Col(src[i*s.c*s.h*s.w:(i+1)*s.c*s.h*s.w],
			s.c, s.h, s.w, s.kh, s.kw, s.stride, s.pad, col)
		Gemm(dst[i*s.outC*outArea:(i+1)*s.outC*outArea], wd, col, s.outC, k, outArea)
	}
}

func benchConvBwd(b *testing.B, s convShape, fused bool) {
	benchConvBwdSparsity(b, s, fused, 0)
}

// benchConvBwdSparsity optionally zeroes a fraction of dY before
// timing — the training regime, where ReLU backprop leaves dY roughly
// half zeros.
func benchConvBwdSparsity(b *testing.B, s convShape, fused bool, zeroFrac float64) {
	wd, src, dY := convOracleData(1, s)
	if zeroFrac > 0 {
		r := NewRNG(7)
		for i := range dY {
			if r.Float64() < zeroFrac {
				dY[i] = 0
			}
		}
	}
	k := s.c * s.kh * s.kw
	chw := s.c * s.h * s.w
	dX := make([]float32, s.n*chw)
	chunks := make([]float32, s.n*s.outC*k)
	dW := make([]float32, s.outC*k)
	outArea := ConvOutSize(s.h, s.kh, s.stride, s.pad) * ConvOutSize(s.w, s.kw, s.stride, s.pad)
	col := make([]float32, k*outArea)
	dcol := make([]float32, k*outArea)
	withWorkers(1, func() {
		b.ResetTimer()
		for it := 0; it < b.N; it++ {
			for x := range dX {
				dX[x] = 0
			}
			if fused {
				ConvGemmBackward(dX, chunks, wd, src, dY, s.n, s.c, s.h, s.w, s.outC, s.kh, s.kw, s.stride, s.pad)
				wlen := s.outC * k
				for i := 0; i < s.n; i++ {
					for j, v := range chunks[i*wlen : (i+1)*wlen] {
						dW[j] += v
					}
				}
			} else {
				for i := 0; i < s.n; i++ {
					Im2Col(src[i*chw:(i+1)*chw], s.c, s.h, s.w, s.kh, s.kw, s.stride, s.pad, col)
					dyi := dY[i*s.outC*outArea : (i+1)*s.outC*outArea]
					GemmTB(chunks[:s.outC*k], dyi, col, s.outC, outArea, k)
					for j, v := range chunks[:s.outC*k] {
						dW[j] += v
					}
					GemmTA(dcol, wd, dyi, s.outC, k, outArea)
					Col2Im(dcol, s.c, s.h, s.w, s.kh, s.kw, s.stride, s.pad, dX[i*chw:(i+1)*chw])
				}
			}
		}
	})
}

func BenchmarkConvFwdFused32(b *testing.B) { benchConvFwd(b, benchConv32, true) }
func BenchmarkConvFwdRef32(b *testing.B)   { benchConvFwd(b, benchConv32, false) }
func BenchmarkConvBwdFused32(b *testing.B) { benchConvBwd(b, benchConv32, true) }
func BenchmarkConvBwdRef32(b *testing.B)   { benchConvBwd(b, benchConv32, false) }
func BenchmarkConvFwdFused12(b *testing.B) { benchConvFwd(b, benchConv12, true) }
func BenchmarkConvFwdRef12(b *testing.B)   { benchConvFwd(b, benchConv12, false) }
func BenchmarkConvBwdFused12(b *testing.B) { benchConvBwd(b, benchConv12, true) }
func BenchmarkConvBwdRef12(b *testing.B)   { benchConvBwd(b, benchConv12, false) }

// The sparse pair times backward with 60% of dY zeroed — the ReLU
// backprop regime the axpy dW kernel's quad skip targets.
func BenchmarkConvBwdFusedSparse32(b *testing.B) { benchConvBwdSparsity(b, benchConv32, true, 0.6) }
func BenchmarkConvBwdRefSparse32(b *testing.B)   { benchConvBwdSparsity(b, benchConv32, false, 0.6) }

// The deep pair is a late-stage ResNet shape (k=576 ≫ outArea=64),
// where dW dominates backward and the dot kernels' per-element
// horizontal reductions over short outArea-length vectors are the
// bottleneck the axpy batching removes.
func BenchmarkConvBwdFusedDeep(b *testing.B) { benchConvBwd(b, benchConvDeep, true) }
func BenchmarkConvBwdRefDeep(b *testing.B)   { benchConvBwd(b, benchConvDeep, false) }

// The pointwise pair times a 1×1 conv, whose forward copies the batch
// into phase rows as a 3×3 conv does, and whose backward skips the
// im2col/col2im index arithmetic.
func BenchmarkConvFwdFused1x1(b *testing.B) { benchConvFwd(b, benchConv1x1, true) }
func BenchmarkConvFwdRef1x1(b *testing.B)   { benchConvFwd(b, benchConv1x1, false) }
func BenchmarkConvBwdFused1x1(b *testing.B) { benchConvBwd(b, benchConv1x1, true) }
func BenchmarkConvBwdRef1x1(b *testing.B)   { benchConvBwd(b, benchConv1x1, false) }

// planeSentinel fills the parts of a plane no conv may write: a NaN
// whose payload no arithmetic produces.
var planeSentinel = math.Float32frombits(0x7fc0dead)

// outPlane views the dense output batch out of s as a plane.
func (s convShape) outPlane(out []float32) Plane {
	return Plane{Data: out, N: s.n, C: s.outC,
		H: ConvOutSize(s.h, s.kh, s.stride, s.pad), W: ConvOutSize(s.w, s.kw, s.stride, s.pad)}
}

// planeLayout is a plane's border and, when not 0, its span: the
// samples a row of a batch-row plane holds.
type planeLayout struct{ pad, span int }

func (l planeLayout) String() string {
	if l.span == 0 {
		return fmt.Sprintf("pad %d", l.pad)
	}
	return fmt.Sprintf("pad %d span %d", l.pad, l.span)
}

// layoutPlane returns the n×c×h×w dense batch x as a plane of layout l
// whose borders (and gaps between samples) hold fill, whose samples
// past n hold stale, and whose 7 values past its last row hold +0.
func layoutPlane(x []float32, n, c, h, w int, l planeLayout, fill, stale float32) Plane {
	p := Plane{N: n, C: c, H: h, W: w, Pad: l.pad, Span: l.span}
	p.Data = make([]float32, p.Len())
	body := p.Data[:p.bodyLen()]
	for i := range body {
		body[i] = fill
	}
	for i := 0; i < max(n, l.span); i++ {
		for ch := 0; ch < c; ch++ {
			for y := 0; y < h; y++ {
				row := p.Data[p.Offset(i, ch, y, 0):][:w]
				if i >= n {
					for j := range row {
						row[j] = stale
					}
					continue
				}
				copy(row, x[((i*c+ch)*h+y)*w:][:w])
			}
		}
	}
	return p
}

// checkPlaneOut fails unless the interior of the plane got holds want's
// bits and every value outside it still holds the bits it held in
// before.
func checkPlaneOut(t *testing.T, what string, want []float32, got Plane, before []float32) {
	t.Helper()
	interior := make([]bool, len(got.Data))
	for i := 0; i < got.N; i++ {
		for ch := 0; ch < got.C; ch++ {
			for y := 0; y < got.H; y++ {
				for x := 0; x < got.W; x++ {
					o := got.Offset(i, ch, y, x)
					interior[o] = true
					j := ((i*got.C+ch)*got.H+y)*got.W + x
					if math.Float32bits(got.Data[o]) != math.Float32bits(want[j]) {
						t.Fatalf("%s: element %d is %v, oracle %v", what, j, got.Data[o], want[j])
					}
				}
			}
		}
	}
	for o, in := range interior {
		if !in && math.Float32bits(got.Data[o]) != math.Float32bits(before[o]) {
			t.Fatalf("%s: wrote %v over %v outside the interior at %d", what, got.Data[o], before[o], o)
		}
	}
}

// runPlaneForward runs ConvPlaneForward from a plane of layout in into
// a plane of layout out, with ep (when not nil) reading its residual,
// ep.Residual in dense layout, from a plane of layout res, or from the
// output plane itself when alias is set, and checks the result against
// want. A border the conv reads in place (stride 1, the src's border
// the conv's pad) holds +0, as do a batch-row output's borders and gaps,
// which the conv may store +0 into; every other border, and the samples
// past the batch in each batch-row plane, hold NaN or planeSentinel,
// which a correct conv neither reads into an output nor writes over.
func runPlaneForward(t *testing.T, what string, s convShape, wd, src []float32, ep *ConvEpilogue, want []float32, in, out, res planeLayout, alias bool) {
	t.Helper()
	outH := ConvOutSize(s.h, s.kh, s.stride, s.pad)
	outW := ConvOutSize(s.w, s.kw, s.stride, s.pad)
	nan := float32(math.NaN())
	fill := nan
	if s.stride == 1 && in.pad == s.pad {
		fill = 0
	}
	inP := layoutPlane(src, s.n, s.c, s.h, s.w, in, fill, nan)
	outFill := planeSentinel
	if out.span != 0 {
		outFill = 0
	}
	outData := make([]float32, s.n*s.outC*outH*outW)
	if alias {
		outData = ep.Residual.Data
	}
	outP := layoutPlane(outData, s.n, s.outC, outH, outW, out, outFill, planeSentinel)
	var pe *ConvEpilogue
	if ep != nil {
		e := *ep
		if alias {
			e.Residual = outP
		} else if e.Residual.Data != nil {
			e.Residual = layoutPlane(ep.Residual.Data, s.n, s.outC, outH, outW, res, nan, nan)
		}
		pe = &e
	}
	before := append([]float32(nil), outP.Data...)
	ConvPlaneForward(outP, wd, inP, s.kh, s.kw, s.stride, s.pad, pe)
	resWhat := res.String()
	if alias {
		resWhat = "the dst"
	}
	checkPlaneOut(t, fmt.Sprintf("%s src %v dst %v residual %s", what, in, out, resWhat), want, outP, before)
}

// TestConvPlaneForwardMatchesOracle runs the plane entry on every grid
// shape from planes of several layouts into planes of several layouts,
// with and without the epilogue and a residual in a third layout or in
// dst itself, at several worker counts: the interior of each sample
// must hold the oracle's bits, and nothing outside it may change. Every
// layout runs the batch as one wide image: a batch-row src is read in
// place (stride 1, the conv's own pad) or copied, and a dense one is
// copied. A batch-row dst's borders and gaps must still hold +0
// afterwards, whether the store skips the gaps (a dense or differently
// spaced dst or residual) or stores whole rows and resets them (a dst
// whose samples lie as far apart as in the conv's phase rows: border
// wide below).
func TestConvPlaneForwardMatchesOracle(t *testing.T) {
	for _, s := range convShapes {
		t.Run(s.String(), func(t *testing.T) {
			wd, src, res := convOracleData(0x91A, s)
			convSkipWitnesses(0x91A, wd, src, s)
			var want []float32
			withWorkers(1, func() { want = refConvForward(wd, src, s) })
			ep := seededEpilogue(0x91B, s, res)
			wantEp := append([]float32(nil), want...)
			refEpilogue(wantEp, ep, s.outC, len(want)/(s.n*s.outC))
			// The border that spaces an output's samples as the phase
			// rows space them: w + pad apart at stride 1, ⌈(w+2·pad)/s⌉
			// apart otherwise.
			q := s.w + s.pad
			if s.stride > 1 {
				q = (s.w + 2*s.pad + s.stride - 1) / s.stride
			}
			wide := max(q-ConvOutSize(s.w, s.kw, s.stride, s.pad), 0)
			n := s.n
			type layouts struct {
				in, out, res planeLayout
				alias        bool
			}
			cases := []layouts{
				{in: planeLayout{}, out: planeLayout{}, res: planeLayout{}},
				{in: planeLayout{}, out: planeLayout{}, res: planeLayout{2, n + 1}},
				{in: planeLayout{}, out: planeLayout{}, alias: true},
				{in: planeLayout{s.pad + 1, n + 1}, out: planeLayout{2, n}, res: planeLayout{1, n + 2}},
				{in: planeLayout{1, n + 3}, out: planeLayout{s.pad, n}, res: planeLayout{s.pad, n + 1}},
				{in: planeLayout{s.pad, n + 1}, out: planeLayout{wide, n + 2}, res: planeLayout{wide, n}},
				{in: planeLayout{s.pad + 1, n}, out: planeLayout{wide, n}, res: planeLayout{}},
				{in: planeLayout{}, out: planeLayout{wide, n + 3}, res: planeLayout{wide + 1, n + 1}},
				{in: planeLayout{s.pad, n + 2}, out: planeLayout{}, res: planeLayout{}},
				{in: planeLayout{s.pad, n}, out: planeLayout{wide + 1, n + 1}},
				{in: planeLayout{s.pad, n}, out: planeLayout{wide, n + 1}, alias: true},
			}
			for _, w := range []int{1, 2} {
				withWorkers(w, func() {
					for _, l := range cases {
						what := fmt.Sprintf("workers=%d", w)
						if !l.alias {
							runPlaneForward(t, what, s, wd, src, nil, want, l.in, l.out, l.res, false)
						}
						runPlaneForward(t, what+" epilogue", s, wd, src, ep, wantEp, l.in, l.out, l.res, l.alias)
					}
				})
			}
		})
	}
}

// TestConvPlaneForwardRejectsBadInput: each input check of
// ConvPlaneForward panics with a message naming it, and a plane in
// neither layout (no span but a border) is rejected wherever it is
// passed.
func TestConvPlaneForwardRejectsBadInput(t *testing.T) {
	s := convShape{3, 2, 6, 6, 4, 3, 3, 1, 1}
	wd, src, res := convOracleData(0xBAD, s)
	type call struct {
		dst, src Plane
		wd       []float32
		ep       *ConvEpilogue
	}
	good := func() call {
		ep := seededEpilogue(0xBAD, s, res)
		return call{dst: s.outPlane(make([]float32, len(res))), wd: wd, ep: ep,
			src: Plane{Data: src, N: s.n, C: s.c, H: s.h, W: s.w}}
	}
	rowPlane := func(p Plane, span int) Plane {
		p.Pad, p.Span = 1, span
		p.Data = make([]float32, p.Len())
		return p
	}
	for _, c := range []struct {
		name, want string
		edit       func(*call)
	}{
		{"dst shape", "dst is not the conv's output shape", func(c *call) { c.dst.H++ }},
		{"residual shape", "residual is not the conv's output shape", func(c *call) { c.ep.Residual.C-- }},
		{"src span below N", "src holds fewer samples per row than the batch", func(c *call) { c.src = rowPlane(c.src, s.n-1) }},
		{"dst span below N", "dst holds fewer samples per row than the batch", func(c *call) { c.dst = rowPlane(c.dst, s.n-1) }},
		{"residual span below N", "residual holds fewer samples per row than the batch", func(c *call) { c.ep.Residual = rowPlane(c.ep.Residual, 1) }},
		{"src short", "src too small", func(c *call) { c.src.Data = c.src.Data[:len(c.src.Data)-1] }},
		{"batch-row src short", "src too small", func(c *call) { c.src = rowPlane(c.src, s.n); c.src.Data = c.src.Data[:c.src.Len()-8] }},
		{"dst short", "dst too small", func(c *call) { c.dst.Data = c.dst.Data[:len(c.dst.Data)-1] }},
		{"residual short", "residual too small", func(c *call) { c.ep.Residual.Data = c.ep.Residual.Data[:1] }},
		{"weight short", "weight too small", func(c *call) { c.wd = c.wd[:len(c.wd)-1] }},
		{"mean short", "epilogue constants too short", func(c *call) { c.ep.Mean = c.ep.Mean[:s.outC-1] }},
		{"mul1 short", "epilogue constants too short", func(c *call) { c.ep.Mul1 = nil }},
		{"mul2 short", "epilogue constants too short", func(c *call) { c.ep.Mul2 = c.ep.Mul2[:1] }},
		{"beta short", "epilogue constants too short", func(c *call) { c.ep.Beta = c.ep.Beta[:0] }},
		{"src border without span", "src has a border but no span", func(c *call) { c.src.Pad = 1 }},
		{"dst border without span", "dst has a border but no span", func(c *call) { c.dst.Pad = 1 }},
		{"residual border without span", "residual has a border but no span", func(c *call) { c.ep.Residual.Pad = 2 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			in := good()
			c.edit(&in)
			defer func() {
				want := "tensor: ConvPlaneForward " + c.want
				if got, _ := recover().(string); got != want {
					t.Fatalf("panic %q, want %q", got, want)
				}
			}()
			ConvPlaneForward(in.dst, in.wd, in.src, s.kh, s.kw, s.stride, s.pad, in.ep)
		})
	}
	in := good() // the unedited call runs
	ConvPlaneForward(in.dst, in.wd, in.src, s.kh, s.kw, s.stride, s.pad, in.ep)
}

// TestConvGemmBackwardOverwritesDX: ConvGemmBackward writes every dX
// element, so dX may hold anything on entry. Stride 1 copies dX out of
// its plane, and a strided conv clears each sample's dX before its
// scatter adds into it; a dX filled with NaN must come out with the
// oracle's bits either way.
func TestConvGemmBackwardOverwritesDX(t *testing.T) {
	for _, s := range []convShape{{3, 2, 7, 7, 3, 3, 3, 1, 1}, {3, 2, 7, 7, 3, 3, 3, 2, 1}, {4, 3, 9, 8, 4, 2, 2, 2, 0}} {
		t.Run(s.String(), func(t *testing.T) {
			wd, src, dY := convOracleData(0xD1, s)
			backwardSkipWitnesses(0xD1, wd, src, dY, s)
			_, wantDX := refConvBackward(wd, src, dY, s)
			for _, w := range []int{1, 2} {
				withWorkers(w, func() {
					dX := make([]float32, len(wantDX))
					for i := range dX {
						dX[i] = float32(math.NaN())
					}
					chunks := make([]float32, s.n*s.outC*s.c*s.kh*s.kw)
					ConvGemmBackward(dX, chunks, wd, src, dY, s.n, s.c, s.h, s.w, s.outC, s.kh, s.kw, s.stride, s.pad)
					if i := exactMismatch(wantDX, dX); i >= 0 {
						t.Fatalf("workers=%d: dX over NaN differs from GemmTA+Col2Im at %d: %v, want %v", w, i, dX[i], wantDX[i])
					}
				})
			}
		})
	}
}
