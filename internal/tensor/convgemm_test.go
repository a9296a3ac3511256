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
// the 1×1/stride-1/pad-0 zero-copy fast path, 1×1 with stride (gathered
// path), pad ≥ kernel (taps that never touch the image), strides 2–3,
// non-square 5×5, 2×2 and 2×3 kernels, k%4 tails, small planes
// (outArea ≪ gemmJTile), stride-1 planes split into several row blocks
// (outArea > gemmJTile, the 32×32 paper shape among them), and a
// stride-1 output row wider than gemmJTile, which takes the gathered
// path.
var convShapes = []convShape{
	{1, 1, 3, 3, 1, 1, 1, 1, 0},     // minimal 1×1 fast path
	{2, 3, 8, 8, 4, 1, 1, 1, 0},     // 1×1 fast path, k%4 tail (c=3)
	{3, 4, 9, 9, 5, 1, 1, 2, 0},     // 1×1 with stride: general path
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
	{1, 2, 3, 260, 3, 3, 3, 1, 1},   // outW=260 > gemmJTile: gathered
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

// TestConv1x1FastPathMatchesGeneralPath runs the general panel-packing
// path on a 1×1/stride-1/pad-0 shape (which ConvGemmForward would
// normally route to the zero-copy path) and requires bitwise equality.
func TestConv1x1FastPathMatchesGeneralPath(t *testing.T) {
	s := convShape{3, 5, 9, 9, 4, 1, 1, 1, 0}
	wd, src, dY := convOracleData(0x1F1, s)
	area := s.h * s.w
	perSample := (area + gemmJTile - 1) / gemmJTile
	for _, w := range []int{1, 3} {
		withWorkers(w, func() {
			fast := make([]float32, s.n*s.outC*area)
			ConvGemmForward(fast, wd, src, s.n, s.c, s.h, s.w, s.outC, 1, 1, 1, 0)
			general := make([]float32, len(fast))
			convForwardUnits(general, wd, src, s.c, s.h, s.w, 1, 1, 1, 0, s.h, s.w, s.outC, perSample, 0, s.n*perSample)
			for i := range fast {
				if fast[i] != general[i] {
					t.Fatalf("workers=%d: 1x1 fast path differs from general path at %d", w, i)
				}
			}
		})
	}
	// Backward: the pointwise flag is chosen inside convBackwardSamples,
	// so pin it against the materialized oracle instead (the general fused
	// path is pinned to the same oracle by the grid test above).
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
		t.Fatalf("1x1 fast backward dX differs from oracle")
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

// The pointwise pair exercises the zero-copy 1×1 fast path, where the
// fused forward reads src as the column matrix and packs nothing, and
// the fused backward skips the im2col/col2im index arithmetic.
func BenchmarkConvFwdFused1x1(b *testing.B) { benchConvFwd(b, benchConv1x1, true) }
func BenchmarkConvFwdRef1x1(b *testing.B)   { benchConvFwd(b, benchConv1x1, false) }
func BenchmarkConvBwdFused1x1(b *testing.B) { benchConvBwd(b, benchConv1x1, true) }
func BenchmarkConvBwdRef1x1(b *testing.B)   { benchConvBwd(b, benchConv1x1, false) }
