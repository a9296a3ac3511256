package tensor

import (
	"fmt"
	"math"
	"testing"
)

// Int8 kernel pinning. Because int32 accumulation is exact and
// associative, the AVX2 variant must equal the scalar reference bit
// for bit, at every shape and worker count.

// s8Kernels lists the int8 kernels to pin: the scalar loops always,
// and the AVX2 dot kernels where the CPU has them. Tests call the
// kernels directly because the public entry points pick the AVX2 path
// wherever the CPU has it, which would leave the scalar path unchecked.
func s8Kernels() []bool {
	if s8Supported {
		return []bool{false, true}
	}
	return []bool{false}
}

func kernelName(fast bool) string {
	if fast {
		return "avx2"
	}
	return "scalar"
}

// randS8 returns n int8 values spanning the full quantized range,
// deterministically from seed.
func randS8(seed uint64, n int) []int8 {
	r := NewRNG(seed)
	out := make([]int8, n)
	for i := range out {
		out[i] = int8(int32(r.Uint64()%255) - QuantClamp)
	}
	return out
}

func TestQuantizeLinearRoundTrip(t *testing.T) {
	src := []float32{0, 1, -1, 0.5, -0.5, 3.14159, -2.71828, 100, -100}
	maxabs := MaxAbs(src)
	if maxabs != 100 {
		t.Fatalf("MaxAbs = %v, want 100", maxabs)
	}
	scale := ScaleFor(maxabs)
	q := make([]int8, len(src))
	QuantizeLinear(q, src, scale)
	back := make([]float32, len(src))
	Dequantize(back, q, scale)
	for i, v := range src {
		if diff := math.Abs(float64(back[i] - v)); diff > float64(scale)/2+1e-6 {
			t.Fatalf("element %d: %v round-trips to %v (scale %v)", i, v, back[i], scale)
		}
	}
	// Symmetry: +x and -x map to ±q.
	qPos, qNeg := make([]int8, 1), make([]int8, 1)
	QuantizeLinear(qPos, []float32{37.5}, scale)
	QuantizeLinear(qNeg, []float32{-37.5}, scale)
	if qPos[0] != -qNeg[0] {
		t.Fatalf("asymmetric quantization: %d vs %d", qPos[0], qNeg[0])
	}
	// Saturation clamps instead of wrapping.
	QuantizeLinear(qPos, []float32{1e9}, scale)
	QuantizeLinear(qNeg, []float32{-1e9}, scale)
	if qPos[0] != QuantClamp || qNeg[0] != -QuantClamp {
		t.Fatalf("clamp failed: %d, %d", qPos[0], qNeg[0])
	}
}

func TestScaleForDegenerate(t *testing.T) {
	for _, m := range []float32{0, -1, float32(math.NaN()), float32(math.Inf(1))} {
		if s := ScaleFor(m); s != 1 {
			t.Fatalf("ScaleFor(%v) = %v, want 1", m, s)
		}
	}
	q := make([]int8, 3)
	QuantizeLinear(q, []float32{0, 0, 0}, ScaleFor(0))
	for _, v := range q {
		if v != 0 {
			t.Fatal("all-zero tensor must quantize to all-zero bytes")
		}
	}
}

func TestQuantizeRowsPerRowScales(t *testing.T) {
	rows, cols := 4, 9
	src := make([]float32, rows*cols)
	r := NewRNG(11)
	for i := range src {
		src[i] = float32(r.NormFloat64()) * float32(1+i/cols) // growing magnitude per row
	}
	q := make([]int8, rows*cols)
	scales := make([]float32, rows)
	QuantizeRows(q, scales, src, rows, cols)
	for rI := 0; rI < rows; rI++ {
		row := src[rI*cols : (rI+1)*cols]
		if want := ScaleFor(MaxAbs(row)); scales[rI] != want {
			t.Fatalf("row %d scale %v, want %v", rI, scales[rI], want)
		}
		// The row max must hit ±QuantClamp (symmetric full-range use).
		var peak int8
		for _, v := range q[rI*cols : (rI+1)*cols] {
			if v > peak {
				peak = v
			}
			if -v > peak {
				peak = -v
			}
		}
		if peak != QuantClamp {
			t.Fatalf("row %d peak |q| = %d, want %d", rI, peak, QuantClamp)
		}
	}
}

// TestQuantizerMatchesRound pins Quantizer.Q to the definition it
// implements, clamp(math.Round(v·(1/scale)), ±QuantClamp), on every
// tie k±0.5, its float32 neighbours, saturation edges, signed zeros,
// infinities and random values at several scales.
func TestQuantizerMatchesRound(t *testing.T) {
	ref := func(v float32, scale float32) int8 {
		q := math.Round(float64(v) * (1 / float64(scale)))
		if q > QuantClamp {
			q = QuantClamp
		} else if q < -QuantClamp {
			q = -QuantClamp
		}
		return int8(q)
	}
	var vs []float32
	for k := -140; k <= 140; k++ {
		tie := float32(k) + 0.5
		vs = append(vs, float32(k), tie, math.Nextafter32(tie, 0), math.Nextafter32(tie, 1e9), math.Nextafter32(tie, -1e9))
	}
	vs = append(vs, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.MaxFloat32, -math.MaxFloat32, 1e-45, -1e-45)
	r := NewRNG(13)
	for i := 0; i < 20000; i++ {
		vs = append(vs, float32(r.NormFloat64()*math.Pow(10, float64(i%7-3))))
	}
	for _, scale := range []float32{1, 0.5, 0.1, 1.0 / 127, 3e-3, 7.25} {
		qz := NewQuantizer(scale)
		for _, v := range vs {
			if got, want := qz.Q(v*scale), ref(v*scale, scale); got != want {
				t.Fatalf("scale %v: Q(%v) = %d, want %d", scale, v*scale, got, want)
			}
			if got, want := qz.Q(v), ref(v, scale); got != want {
				t.Fatalf("scale %v: Q(%v) = %d, want %d", scale, v, got, want)
			}
		}
	}
}

// TestQuantizePaddedMatchesQuantizeLinear: the padded plane's interior
// holds exactly QuantizeLinear's bytes and its border is untouched.
func TestQuantizePaddedMatchesQuantizeLinear(t *testing.T) {
	c, h, w, pad := 3, 5, 4, 2
	src := make([]float32, c*h*w)
	r := NewRNG(12)
	for i := range src {
		src[i] = float32(r.NormFloat64()) * 3
	}
	scale := ScaleFor(MaxAbs(src) / 2) // saturates the largest values
	want := make([]int8, len(src))
	QuantizeLinear(want, src, scale)
	hp, wp := h+2*pad, w+2*pad
	dst := make([]int8, c*hp*wp)
	for i := range dst {
		dst[i] = 99 // a border sentinel
	}
	QuantizePadded(dst, src, c, h, w, hp, wp, pad, scale)
	for ci := 0; ci < c; ci++ {
		for y := 0; y < hp; y++ {
			for x := 0; x < wp; x++ {
				got := dst[(ci*hp+y)*wp+x]
				iy, ix := y-pad, x-pad
				if iy < 0 || iy >= h || ix < 0 || ix >= w {
					if got != 99 {
						t.Fatalf("border (%d,%d,%d) written: %d", ci, y, x, got)
					}
				} else if q := want[(ci*h+iy)*w+ix]; got != q {
					t.Fatalf("interior (%d,%d,%d) = %d, QuantizeLinear wrote %d", ci, iy, ix, got, q)
				}
			}
		}
	}
}

// TestDotS8FastMatchesScalar pins the AVX2 dot kernels bit-identical to
// the scalar reference across lengths that exercise the 32-, 16-, 8-
// and 4-element steps and the Go tail.
func TestDotS8FastMatchesScalar(t *testing.T) {
	if !s8Supported {
		t.Skip("CPU lacks AVX2 (or noasm build): no int8 microkernels to pin")
	}
	for _, k := range []int{1, 3, 4, 8, 12, 15, 16, 17, 20, 24, 27, 28, 31, 32, 33, 36, 48, 64, 72, 100, 255, 1024, 1031} {
		a := randS8(uint64(k)*13+1, k)
		b0 := randS8(uint64(k)*13+2, k)
		b1 := randS8(uint64(k)*13+3, k)
		b2 := randS8(uint64(k)*13+4, k)
		b3 := randS8(uint64(k)*13+5, k)
		want := dotS8Ref(a, b0)
		if got := fastDotS8(a, b0); got != want {
			t.Fatalf("k=%d: fastDotS8 = %d, scalar = %d", k, got, want)
		}
		w0, w1, w2, w3 := dotS8Ref(a, b0), dotS8Ref(a, b1), dotS8Ref(a, b2), dotS8Ref(a, b3)
		g0, g1, g2, g3 := fastDot4S8(a, b0, b1, b2, b3)
		if g0 != w0 || g1 != w1 || g2 != w2 || g3 != w3 {
			t.Fatalf("k=%d: fastDot4S8 = %d,%d,%d,%d want %d,%d,%d,%d", k, g0, g1, g2, g3, w0, w1, w2, w3)
		}
	}
}

// TestDotS8ExtremeValues drives the kernels at the saturation corners
// where an int16 or pair-sum overflow bug would surface.
func TestDotS8ExtremeValues(t *testing.T) {
	k := 1024
	a, b := make([]int8, k), make([]int8, k)
	for i := range a {
		a[i], b[i] = -QuantClamp, -QuantClamp
	}
	want := int32(k) * QuantClamp * QuantClamp
	dots := map[string]func(a, b []int8) int32{"DotS8": DotS8, "scalar": dotS8Ref}
	if s8Supported {
		dots["avx2"] = fastDotS8
	}
	for name, dot := range dots {
		for i := range b {
			b[i] = -QuantClamp
		}
		if got := dot(a, b); got != want {
			t.Fatalf("%s all -127 dot: %d, want %d", name, got, want)
		}
		for i := range b {
			b[i] = QuantClamp
		}
		if got := dot(a, b); got != -want {
			t.Fatalf("%s mixed-sign dot: %d, want %d", name, got, -want)
		}
	}
}

func TestGemmS8TBMatchesOracleBothTiers(t *testing.T) {
	shapes := [][3]int{{1, 1, 1}, {3, 7, 5}, {8, 16, 8}, {5, 27, 33}, {17, 48, 65}, {33, 144, 40}}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		t.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(t *testing.T) {
			a := randS8(uint64(m*k*n)+1, m*k)
			b := randS8(uint64(m*k*n)+2, n*k)
			want := make([]int32, m*n)
			gemmS8TBRef(want, a, b, m, k, n)

			check := func(name string, gemm func(got []int32)) {
				got := make([]int32, m*n)
				gemm(got)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: element %d = %d, want %d", name, i, got[i], want[i])
					}
				}
			}
			for _, fast := range s8Kernels() {
				check(kernelName(fast), func(got []int32) { gemmS8TBRows(got, a, b, k, n, 0, m, fast) })
			}
			check("GemmS8TB", func(got []int32) { GemmS8TB(got, a, b, m, k, n) })
		})
	}
}

// TestGemmS8TBWorkerInvariance: the int8 GEMM must be bit-identical at
// every worker count.
func TestGemmS8TBWorkerInvariance(t *testing.T) {
	m, k, n := 33, 64, 129 // crosses matMulShardFlops
	a := randS8(0xABCD, m*k)
	b := randS8(0xEF01, n*k)
	var ref []int32
	for _, w := range []int{1, 2, 4} {
		got := make([]int32, m*n)
		withWorkers(w, func() { GemmS8TB(got, a, b, m, k, n) })
		if ref == nil {
			ref = got
			continue
		}
		for i := range ref {
			if ref[i] != got[i] {
				t.Fatalf("GemmS8TB differs between workers=1 and workers=%d at %d", w, i)
			}
		}
	}
}

func TestGemvS8MatchesGemm(t *testing.T) {
	m, k := 13, 37
	a := randS8(0x6E4, m*k)
	x := randS8(0x6E5, k)
	want := make([]int32, m)
	gemmS8TBRef(want, a, x, m, k, 1)
	got := make([]int32, m)
	GemvS8(got, a, x, m, k)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("GemvS8 element %d = %d, want %d", i, got[i], want[i])
		}
	}
	for _, fast := range s8Kernels() {
		clear(got)
		gemvS8(got, a, x, m, k, fast)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s gemvS8 element %d = %d, want %d", kernelName(fast), i, got[i], want[i])
			}
		}
	}
}

// TestIm2RowS8MatchesNaiveGather pins the patch-major int8 gather over
// a zero-bordered plane against a direct per-position receptive-field
// walk of the unpadded plane, including the zero-padding bytes.
func TestIm2RowS8MatchesNaiveGather(t *testing.T) {
	for _, g := range [][4]int{{3, 3, 2, 1}, {3, 3, 1, 1}, {1, 1, 2, 0}, {2, 5, 1, 2}, {3, 2, 3, 0}} {
		t.Run(fmt.Sprintf("k%dx%d_s%d_p%d", g[0], g[1], g[2], g[3]), func(t *testing.T) {
			checkIm2RowS8(t, 3, 7, 6, g[0], g[1], g[2], g[3])
		})
	}
}

func checkIm2RowS8(t *testing.T, c, h, w, kh, kw, stride, pad int) {
	outH := ConvOutSize(h, kh, stride, pad)
	outW := ConvOutSize(w, kw, stride, pad)
	k := c * kh * kw
	src := randS8(77, c*h*w)
	hp, wp := h+2*pad, w+2*pad
	padded := make([]int8, c*hp*wp)
	for ci := 0; ci < c; ci++ {
		for y := 0; y < h; y++ {
			copy(padded[(ci*hp+y+pad)*wp+pad:], src[(ci*h+y)*w:(ci*h+y+1)*w])
		}
	}
	dst := make([]int8, outH*outW*k)
	Im2RowS8(dst, padded, c, hp, wp, kh, kw, stride, outH, outW)
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			row := dst[(oy*outW+ox)*k : (oy*outW+ox+1)*k]
			d := 0
			for ci := 0; ci < c; ci++ {
				for ky := 0; ky < kh; ky++ {
					for kx := 0; kx < kw; kx++ {
						iy, ix := oy*stride-pad+ky, ox*stride-pad+kx
						var want int8
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							want = src[ci*h*w+iy*w+ix]
						}
						if row[d] != want {
							t.Fatalf("patch (%d,%d) element %d = %d, want %d", oy, ox, d, row[d], want)
						}
						d++
					}
				}
			}
		}
	}
}

// FuzzGemmS8TBFastVsScalar: on fuzz-chosen shapes the scalar and AVX2
// int8 GEMM kernels must each equal the one-dot-per-element reference
// exactly.
func FuzzGemmS8TBFastVsScalar(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(7), uint8(9))
	f.Add(uint64(2), uint8(1), uint8(1), uint8(1))
	f.Add(uint64(3), uint8(16), uint8(48), uint8(33))
	f.Add(uint64(4), uint8(23), uint8(255), uint8(64))
	f.Fuzz(func(t *testing.T, seed uint64, mRaw, kRaw, nRaw uint8) {
		m := int(mRaw)%24 + 1
		k := int(kRaw) + 1
		n := int(nRaw)%80 + 1
		a := randS8(seed, m*k)
		b := randS8(seed^0x9E3779B97F4A7C15, n*k)
		want := make([]int32, m*n)
		gemmS8TBRef(want, a, b, m, k, n)
		got := make([]int32, m*n)
		for _, fast := range s8Kernels() {
			clear(got)
			gemmS8TBRows(got, a, b, k, n, 0, m, fast)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s gemmS8TBRows diverged from reference at %d", kernelName(fast), i)
				}
			}
		}
	})
}

// BenchmarkGemmS8 benches the int8 GEMM at the linear-layer and
// conv-patch shapes the quantized forward path runs (names match the
// bench-smoke CI pattern).
func BenchmarkGemmS8(b *testing.B) {
	for _, s := range [][3]int{{32, 256, 64}, {1024, 144, 16}} {
		m, k, n := s[0], s[1], s[2]
		a8 := randS8(1, m*k)
		b8 := randS8(2, n*k)
		dst := make([]int32, m*n)
		b.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(b *testing.B) {
			b.SetBytes(int64(m*k + n*k + 4*m*n))
			for i := 0; i < b.N; i++ {
				GemmS8TB(dst, a8, b8, m, k, n)
			}
		})
	}
}

// gemmS8TBRef is the one-dot-per-element reference kernel — the
// bitwise oracle for GemmS8TB in quant_test.go.
func gemmS8TBRef(od []int32, ad, bd []int8, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			od[i*n+j] = dotS8Ref(ad[i*k:(i+1)*k], bd[j*k:(j+1)*k])
		}
	}
}
