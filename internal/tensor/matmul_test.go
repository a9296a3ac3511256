package tensor

import (
	"testing"
	"testing/quick"
)

// naiveMatMul is the reference implementation used to validate the
// optimized kernels.
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k := a.Dim(0), a.Dim(1)
	n := b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += float64(a.At(i, p)) * float64(b.At(p, j))
			}
			out.Set(float32(s), i, j)
		}
	}
	return out
}

func randMat(r *RNG, rows, cols int) *Tensor {
	t := New(rows, cols)
	FillNormal(t, r, 0, 1)
	return t
}

func TestMatMulSmallExact(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, v := range c.Data() {
		if v != want[i] {
			t.Fatalf("got %v want %v", c.Data(), want)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	r := NewRNG(1)
	a := randMat(r, 9, 9)
	id := New(9, 9)
	for i := 0; i < 9; i++ {
		id.Set(1, i, i)
	}
	if !MatMul(a, id).AllClose(a, 1e-6) {
		t.Fatal("A·I != A")
	}
	if !MatMul(id, a).AllClose(a, 1e-6) {
		t.Fatal("I·A != A")
	}
}

func TestMatMulAgainstNaiveProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		m := 1 + int(r.Uint64()%17)
		k := 1 + int(r.Uint64()%23)
		n := 1 + int(r.Uint64()%19)
		a, b := randMat(r, m, k), randMat(r, k, n)
		return MatMul(a, b).AllClose(naiveMatMul(a, b), 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulTAMatchesExplicitTranspose(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		k := 1 + int(r.Uint64()%16)
		m := 1 + int(r.Uint64()%16)
		n := 1 + int(r.Uint64()%16)
		a, b := randMat(r, k, m), randMat(r, k, n)
		return MatMulTA(a, b).AllClose(MatMul(Transpose(a), b), 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulTBMatchesExplicitTranspose(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		m := 1 + int(r.Uint64()%16)
		k := 1 + int(r.Uint64()%16)
		n := 1 + int(r.Uint64()%16)
		a, b := randMat(r, m, k), randMat(r, n, k)
		return MatMulTB(a, b).AllClose(MatMul(a, Transpose(b)), 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

func TestMatMulIntoReusesBuffer(t *testing.T) {
	r := NewRNG(2)
	a, b := randMat(r, 5, 7), randMat(r, 7, 3)
	out := Full(99, 5, 3)
	MatMulInto(out, a, b)
	if !out.AllClose(naiveMatMul(a, b), 1e-4) {
		t.Fatal("MatMulInto must overwrite stale contents")
	}
}

func TestMatVecMatchesMatMul(t *testing.T) {
	r := NewRNG(3)
	a := randMat(r, 6, 4)
	x := randMat(r, 4, 1)
	y := MatVec(a, x.Data())
	want := MatMul(a, x)
	for i, v := range y {
		if d := v - want.At(i, 0); d > 1e-5 || d < -1e-5 {
			t.Fatalf("MatVec mismatch at %d: %v vs %v", i, v, want.At(i, 0))
		}
	}
}

func TestConvOutSize(t *testing.T) {
	cases := []struct{ in, k, s, p, want int }{
		{32, 3, 1, 1, 32},
		{32, 3, 2, 1, 16},
		{8, 3, 1, 0, 6},
		{16, 1, 1, 0, 16},
		{16, 1, 2, 0, 8},
	}
	for _, c := range cases {
		if got := ConvOutSize(c.in, c.k, c.s, c.p); got != c.want {
			t.Fatalf("ConvOutSize(%+v)=%d want %d", c, got, c.want)
		}
	}
}

// naiveConv performs a direct convolution of one CHW image for
// validating im2col lowering.
func naiveConv(src []float32, c, h, w int, wgt *Tensor, kh, kw, stride, pad int) []float32 {
	outC := wgt.Dim(0)
	outH := ConvOutSize(h, kh, stride, pad)
	outW := ConvOutSize(w, kw, stride, pad)
	out := make([]float32, outC*outH*outW)
	for oc := 0; oc < outC; oc++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				var s float64
				for ic := 0; ic < c; ic++ {
					for ky := 0; ky < kh; ky++ {
						for kx := 0; kx < kw; kx++ {
							iy, ix := oy*stride-pad+ky, ox*stride-pad+kx
							if iy < 0 || iy >= h || ix < 0 || ix >= w {
								continue
							}
							s += float64(src[ic*h*w+iy*w+ix]) *
								float64(wgt.At(oc, ic*kh*kw+ky*kw+kx))
						}
					}
				}
				out[oc*outH*outW+oy*outW+ox] = float32(s)
			}
		}
	}
	return out
}

func TestIm2ColConvMatchesNaive(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		c := 1 + int(r.Uint64()%3)
		h := 3 + int(r.Uint64()%6)
		w := 3 + int(r.Uint64()%6)
		stride := 1 + int(r.Uint64()%2)
		pad := int(r.Uint64() % 2)
		kh, kw := 3, 3
		outH := ConvOutSize(h, kh, stride, pad)
		outW := ConvOutSize(w, kw, stride, pad)
		if outH <= 0 || outW <= 0 {
			return true
		}
		src := make([]float32, c*h*w)
		for i := range src {
			src[i] = r.Normal(0, 1)
		}
		outC := 1 + int(r.Uint64()%4)
		wgt := randMat(r, outC, c*kh*kw)
		col := New(c*kh*kw, outH*outW)
		Im2Col(src, c, h, w, kh, kw, stride, pad, col.Data())
		got := MatMul(wgt, col)
		want := naiveConv(src, c, h, w, wgt, kh, kw, stride, pad)
		for i, v := range got.Data() {
			if d := float64(v - want[i]); d > 1e-3 || d < -1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCol2ImIsIm2ColAdjoint(t *testing.T) {
	// <Im2Col(x), y> == <x, Col2Im(y)> — the defining property of the
	// adjoint pair used by conv backward.
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		c, h, w := 2, 6, 5
		kh, kw, stride, pad := 3, 3, 1, 1
		outH := ConvOutSize(h, kh, stride, pad)
		outW := ConvOutSize(w, kw, stride, pad)
		x := make([]float32, c*h*w)
		for i := range x {
			x[i] = r.Normal(0, 1)
		}
		y := make([]float32, c*kh*kw*outH*outW)
		for i := range y {
			y[i] = r.Normal(0, 1)
		}
		colX := make([]float32, len(y))
		Im2Col(x, c, h, w, kh, kw, stride, pad, colX)
		backY := make([]float32, len(x))
		Col2Im(y, c, h, w, kh, kw, stride, pad, backY)
		var lhs, rhs float64
		for i := range y {
			lhs += float64(colX[i]) * float64(y[i])
		}
		for i := range x {
			rhs += float64(x[i]) * float64(backY[i])
		}
		return lhs-rhs < 1e-2 && rhs-lhs < 1e-2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMatMul64(b *testing.B) {
	r := NewRNG(1)
	a, bb := randMat(r, 64, 64), randMat(r, 64, 64)
	out := New(64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(out, a, bb)
	}
}

// benchGemm256 times one of the packed kernels on the 256^3 reference
// shape with a pinned worker count, so serial kernel speed is measured
// apart from sharding.
func benchGemm256(b *testing.B, workers int, run func(out, x, y *Tensor)) {
	old := SetWorkers(workers)
	defer SetWorkers(old)
	r := NewRNG(11)
	x, y := randMat(r, 256, 256), randMat(r, 256, 256)
	out := New(256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(out, x, y)
	}
}

func BenchmarkGemm256Serial(b *testing.B) {
	benchGemm256(b, 1, func(out, x, y *Tensor) { MatMulInto(out, x, y) })
}

func BenchmarkGemmTA256Serial(b *testing.B) {
	benchGemm256(b, 1, func(out, x, y *Tensor) { MatMulTAInto(out, x, y) })
}

func BenchmarkGemmTB256Serial(b *testing.B) {
	benchGemm256(b, 1, func(out, x, y *Tensor) { MatMulTBInto(out, x, y) })
}

// The Ref variants time the pre-blocking reference kernels (the old
// implementations, kept as bitwise oracles) on the same shape, so the
// packed kernels' speedup can be re-measured in one binary.
func BenchmarkGemmRef256Serial(b *testing.B) {
	benchGemm256(b, 1, func(out, x, y *Tensor) { matMulRows(out.Data(), x.Data(), y.Data(), 256, 256, 0, 256) })
}

func BenchmarkGemmTARef256Serial(b *testing.B) {
	benchGemm256(b, 1, func(out, x, y *Tensor) { matMulTARef(out.Data(), x.Data(), y.Data(), 256, 256, 256) })
}

func BenchmarkGemmTBRef256Serial(b *testing.B) {
	benchGemm256(b, 1, func(out, x, y *Tensor) { matMulTBRows(out.Data(), x.Data(), y.Data(), 256, 256, 0, 256) })
}
