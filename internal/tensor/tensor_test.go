package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewShapeAndLen(t *testing.T) {
	x := New(2, 3, 4)
	if x.Rank() != 3 || x.Len() != 24 {
		t.Fatalf("rank=%d len=%d, want 3/24", x.Rank(), x.Len())
	}
	if x.Dim(0) != 2 || x.Dim(1) != 3 || x.Dim(2) != 4 {
		t.Fatalf("bad dims %v", x.Shape())
	}
	for _, v := range x.Data() {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestNewNegativeDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative dim")
		}
	}()
	New(2, -1)
}

func TestFromSliceSharesData(t *testing.T) {
	d := []float32{1, 2, 3, 4}
	x := FromSlice(d, 2, 2)
	d[0] = 42
	if x.At(0, 0) != 42 {
		t.Fatal("FromSlice must not copy")
	}
}

func TestFromSliceBadLenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(3, 4)
	x.Set(7.5, 2, 3)
	if x.At(2, 3) != 7.5 {
		t.Fatal("At/Set mismatch")
	}
	if x.Data()[2*4+3] != 7.5 {
		t.Fatal("row-major layout violated")
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_ = x.At(0, 2)
}

func TestReshapeViewSharesData(t *testing.T) {
	x := New(2, 6)
	y := x.Reshape(3, 4)
	y.Set(5, 0, 1)
	if x.At(0, 1) != 5 {
		t.Fatal("Reshape must share data")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad reshape")
		}
	}()
	x.Reshape(5, 5)
}

func TestCloneIndependence(t *testing.T) {
	x := Full(3, 2, 2)
	y := x.Clone()
	y.Set(9, 0, 0)
	if x.At(0, 0) != 3 {
		t.Fatal("Clone must deep-copy")
	}
	if !x.SameShape(y) {
		t.Fatal("Clone must preserve shape")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{10, 20, 30, 40}, 2, 2)
	if got := Add(a, b).Data(); got[3] != 44 {
		t.Fatalf("Add got %v", got)
	}
	if got := Sub(b, a).Data(); got[0] != 9 {
		t.Fatalf("Sub got %v", got)
	}
	if got := Mul(a, b).Data(); got[2] != 90 {
		t.Fatalf("Mul got %v", got)
	}
	c := a.Clone()
	c.Axpy(2, b)
	if c.At(1, 1) != 4+80 {
		t.Fatalf("Axpy got %v", c.Data())
	}
	c = a.Clone()
	c.Scale(0.5)
	if c.At(0, 1) != 1 {
		t.Fatal("Scale failed")
	}
}

func TestReductions(t *testing.T) {
	a := FromSlice([]float32{-3, 1, 2, -0.5}, 4)
	if a.Sum() != -0.5 {
		t.Fatalf("Sum=%v", a.Sum())
	}
	if a.Mean() != -0.125 {
		t.Fatalf("Mean=%v", a.Mean())
	}
	if a.Max() != 2 || a.Min() != -3 || a.MaxAbs() != 3 {
		t.Fatal("Max/Min/MaxAbs wrong")
	}
	if a.ArgMax() != 2 {
		t.Fatalf("ArgMax=%d", a.ArgMax())
	}
	if math.Abs(a.Norm2()-math.Sqrt(9+1+4+0.25)) > 1e-9 {
		t.Fatalf("Norm2=%v", a.Norm2())
	}
}

func TestVariance(t *testing.T) {
	a := FromSlice([]float32{1, 1, 1, 1}, 4)
	if a.Variance() != 0 {
		t.Fatal("constant tensor must have zero variance")
	}
	b := FromSlice([]float32{0, 2}, 2)
	if b.Variance() != 1 {
		t.Fatalf("Variance=%v want 1", b.Variance())
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	x := New(4, 7)
	r := NewRNG(1)
	FillNormal(x, r, 0, 3)
	s := Softmax(x, nil)
	for i := 0; i < 4; i++ {
		var sum float64
		for _, v := range s.Row(i) {
			if v < 0 || v > 1 {
				t.Fatalf("softmax out of range: %v", v)
			}
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}

func TestSoftmaxStability(t *testing.T) {
	// Huge logits must not overflow.
	x := FromSlice([]float32{1e30, 1e30, -1e30}, 1, 3)
	s := Softmax(x, nil)
	if !s.IsFinite() {
		t.Fatal("softmax overflowed")
	}
	if math.Abs(float64(s.At(0, 0))-0.5) > 1e-5 {
		t.Fatalf("expected 0.5, got %v", s.At(0, 0))
	}
}

func TestTranspose(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	y := Transpose(x)
	if y.Dim(0) != 3 || y.Dim(1) != 2 {
		t.Fatalf("bad transpose shape %v", y.Shape())
	}
	if y.At(2, 1) != 6 || y.At(0, 1) != 4 {
		t.Fatalf("bad transpose values %v", y.Data())
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		rows := 1 + int(r.Uint64()%40)
		cols := 1 + int(r.Uint64()%40)
		x := New(rows, cols)
		FillNormal(x, r, 0, 1)
		return Transpose(Transpose(x)).Equal(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIsFinite(t *testing.T) {
	x := New(3)
	if !x.IsFinite() {
		t.Fatal("zeros are finite")
	}
	x.Data()[1] = float32(math.NaN())
	if x.IsFinite() {
		t.Fatal("NaN not detected")
	}
	x.Data()[1] = float32(math.Inf(1))
	if x.IsFinite() {
		t.Fatal("Inf not detected")
	}
}

func TestAllClose(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	b := FromSlice([]float32{1.0005, 2}, 2)
	if !a.AllClose(b, 1e-3) {
		t.Fatal("expected close")
	}
	if a.AllClose(b, 1e-5) {
		t.Fatal("expected not close")
	}
	c := FromSlice([]float32{1, 2}, 1, 2)
	if a.AllClose(c, 1) {
		t.Fatal("different shapes must not be close")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	r := NewRNG(7)
	x := New(3, 5, 2)
	FillNormal(x, r, 0, 2)
	y := Full(-1, 4)
	b := AppendTensors(nil, x, nil, y)
	got, err := DecodeTensors(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || !x.Equal(got[0]) || got[1] != nil || !y.Equal(got[2]) {
		t.Fatalf("round trip mismatch: %v", got)
	}
	// Every proper prefix is truncated and every extension has trailing
	// bytes: the decoder consumes its input exactly.
	for n := 0; n < len(b); n++ {
		if _, err := DecodeTensors(b[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded", n, len(b))
		}
	}
	if _, err := DecodeTensors(append(b, 0)); err == nil {
		t.Fatal("trailing byte decoded")
	}
}

// TestSerializationBadMagic feeds a garbage header: its count claims
// far more entries than the input holds.
func TestSerializationBadMagic(t *testing.T) {
	if _, err := DecodeTensors([]byte("XXXX....")); err == nil {
		t.Fatal("expected error on a garbage header")
	}
}

// TestGobRoundTripProperty checks the property the model snapshots
// rely on: random tensor lists, absent entries included, survive the
// list codec exactly.
func TestGobRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		var ts []*Tensor
		for i := 0; i < 1+int(r.Uint64()%4); i++ {
			if r.Uint64()%3 == 0 {
				ts = append(ts, nil)
				continue
			}
			x := New(1+int(r.Uint64()%8), 1+int(r.Uint64()%8))
			FillNormal(x, r, 0, 10)
			ts = append(ts, x)
		}
		got, err := DecodeTensors(AppendTensors(nil, ts...))
		if err != nil || len(got) != len(ts) {
			return false
		}
		for i, x := range ts {
			if (x == nil) != (got[i] == nil) || (x != nil && !x.Equal(got[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must give same stream")
		}
	}
	s1 := NewRNG(42).Stream("faults")
	s2 := NewRNG(42).Stream("faults")
	s3 := NewRNG(42).Stream("init")
	if s1.Float64() != s2.Float64() {
		t.Fatal("same stream name must match")
	}
	if NewRNG(42).Stream("faults").Float64() == s3.Float64() {
		t.Fatal("different stream names should diverge")
	}
}

func TestRNGStreamNIndependent(t *testing.T) {
	r := NewRNG(5)
	a := r.StreamN("run", 0).Float64()
	b := r.StreamN("run", 1).Float64()
	if a == b {
		t.Fatal("StreamN children should differ")
	}
}

func TestInitHeScale(t *testing.T) {
	r := NewRNG(3)
	x := New(10000)
	InitHe(x, r, 50)
	std := math.Sqrt(x.Variance())
	want := math.Sqrt(2.0 / 50)
	if math.Abs(std-want) > 0.05*want {
		t.Fatalf("He std=%v want≈%v", std, want)
	}
}

func TestInitXavierRange(t *testing.T) {
	r := NewRNG(3)
	x := New(1000)
	InitXavier(x, r, 30, 10)
	limit := float32(math.Sqrt(6.0 / 40))
	if x.Max() > limit || x.Min() < -limit {
		t.Fatal("Xavier out of range")
	}
}

func TestApplyAndMap(t *testing.T) {
	x := FromSlice([]float32{-1, 2, -3}, 3)
	y := Map(x, func(v float32) float32 {
		if v < 0 {
			return 0
		}
		return v
	})
	if y.At(0) != 0 || y.At(1) != 2 || y.At(2) != 0 {
		t.Fatalf("Map relu wrong: %v", y.Data())
	}
	x.Apply(func(v float32) float32 { return v * v })
	if x.At(2) != 9 {
		t.Fatal("Apply failed")
	}
}

func TestDot(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{4, 5, 6}, 3)
	if Dot(a, b) != 32 {
		t.Fatalf("Dot=%v", Dot(a, b))
	}
}
