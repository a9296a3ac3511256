package tensor

import (
	"math"
	"slices"
	"strings"
	"testing"
)

// TestAddInPlaceMatchesAdd: the in-place add on the run-add kernel
// gives Add's bits, on a length that leaves a tail past the kernel's
// vector width.
func TestAddInPlaceMatchesAdd(t *testing.T) {
	r := NewRNG(71)
	a, b := New(3, 13), New(3, 13)
	FillNormal(a, r, 0, 1)
	FillNormal(b, r, 0, 1e3)
	want := Add(a, b)
	a.AddInPlace(b)
	for i, v := range a.Data() {
		if math.Float32bits(v) != math.Float32bits(want.Data()[i]) {
			t.Fatalf("element %d: AddInPlace %v, Add %v", i, v, want.Data()[i])
		}
	}
}

func TestAddInPlaceShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	New(2, 3).AddInPlace(New(3, 2))
}

// TestAddRowsSumsRowsInOrder: dst[x] is built by adding row 0, then
// row 1, and so on, each sum rounded; operands spread over 2^±30 make
// any other order give other bits.
func TestAddRowsSumsRowsInOrder(t *testing.T) {
	const rows, n = 6, 11
	r := NewRNG(72)
	dst := make([]float32, n)
	src := make([]float32, rows*n)
	for i := range dst {
		dst[i] = float32(math.Ldexp(r.Float64()-0.5, int(r.Uint64()%61)-30))
	}
	for i := range src {
		src[i] = float32(math.Ldexp(r.Float64()-0.5, int(r.Uint64()%61)-30))
	}
	want := append([]float32(nil), dst...)
	for y := 0; y < rows; y++ {
		for x := range want {
			want[x] += src[y*n+x]
		}
	}
	AddRows(dst, src)
	for x := range dst {
		if math.Float32bits(dst[x]) != math.Float32bits(want[x]) {
			t.Fatalf("column %d: AddRows %v, row-order sum %v", x, dst[x], want[x])
		}
	}
	AddRows(dst, nil) // an empty source adds nothing
	for x := range dst {
		if math.Float32bits(dst[x]) != math.Float32bits(want[x]) {
			t.Fatalf("column %d changed on an empty source", x)
		}
	}
}

func TestAddRowsRaggedSourcePanics(t *testing.T) {
	for _, c := range []struct{ dst, src int }{{4, 10}, {0, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("len(dst)=%d len(src)=%d: expected panic", c.dst, c.src)
				}
			}()
			AddRows(make([]float32, c.dst), make([]float32, c.src))
		}()
	}
}

func TestMulInPlace(t *testing.T) {
	a := FromSlice([]float32{1, -2, 3, 0.5}, 2, 2)
	a.MulInPlace(FromSlice([]float32{4, 5, -1, 0}, 2, 2))
	if want := []float32{4, -10, -3, 0}; !slices.Equal(a.Data(), want) {
		t.Fatalf("MulInPlace got %v, want %v", a.Data(), want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	a.MulInPlace(New(4))
}

// TestArgMaxRowTakesFirstMaximum: the prediction of a row with tied
// logits is the first of them, and the argmax is per row.
func TestArgMaxRowTakesFirstMaximum(t *testing.T) {
	logits := FromSlice([]float32{
		0.1, 0.9, 0.3, 0.9,
		-1, -2, -3, -4,
		-5, -1, -1, -3,
		2, 2, 2, 2,
	}, 4, 4)
	for i, want := range []int{1, 0, 1, 0} {
		if got := logits.ArgMaxRow(i); got != want {
			t.Errorf("row %d: ArgMaxRow=%d, want %d", i, got, want)
		}
	}
}

// TestRNGPermIsSeededPermutation: Perm covers [0, n) once, and the same
// seed gives the same order.
func TestRNGPermIsSeededPermutation(t *testing.T) {
	p := NewRNG(73).Perm(50)
	if !slices.Equal(p, NewRNG(73).Perm(50)) {
		t.Fatal("same seed gave different permutations")
	}
	if slices.Equal(p, NewRNG(74).Perm(50)) {
		t.Fatal("different seeds gave the same permutation of 50")
	}
	sorted := slices.Clone(p)
	slices.Sort(sorted)
	for i, v := range sorted {
		if v != i {
			t.Fatalf("not a permutation of [0, 50): %v", p)
		}
	}
	if len(NewRNG(73).Perm(0)) != 0 {
		t.Fatal("Perm(0) must be empty")
	}
}

func TestOnesAndFill(t *testing.T) {
	x := Ones(2, 3)
	if !slices.Equal(x.Shape(), []int{2, 3}) || x.Sum() != 6 {
		t.Fatalf("Ones(2, 3) = %v", x)
	}
	x.Fill(-2.5)
	for _, v := range x.Data() {
		if v != -2.5 {
			t.Fatalf("Fill(-2.5) left %v", x.Data())
		}
	}
}

// TestCopyFromKeepsShape: CopyFrom copies the elements and keeps the
// destination's shape, and rejects a source of another element count.
func TestCopyFromKeepsShape(t *testing.T) {
	dst := New(2, 3)
	dst.CopyFrom(FromSlice([]float32{1, 2, 3, 4, 5, 6}, 6))
	if !slices.Equal(dst.Shape(), []int{2, 3}) || dst.At(1, 2) != 6 {
		t.Fatalf("CopyFrom gave %v", dst)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on element-count mismatch")
		}
	}()
	dst.CopyFrom(New(5))
}

func TestTensorString(t *testing.T) {
	if got, want := FromSlice([]float32{1, 2, 3}, 3).String(), "Tensor[3][1 2 3]"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	big := New(3, 4)
	for i := range big.Data() {
		big.Data()[i] = float32(i)
	}
	if got, want := big.String(), "Tensor[3 4][0 1 2 ... 11] n=12"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// TestCPUFeaturesMatchDispatch: the feature list names only the
// features the kernels use, and names AVX exactly when the exact float
// kernels run on it and AVX2 whenever the int8 kernels do.
func TestCPUFeaturesMatchDispatch(t *testing.T) {
	var feats []string
	if s := CPUFeatures(); s != "" {
		feats = strings.Split(s, ",")
	}
	for i, f := range feats {
		if f != "avx" && f != "avx2" || slices.Contains(feats[:i], f) {
			t.Fatalf("CPUFeatures() = %q: unknown or repeated feature %q", CPUFeatures(), f)
		}
	}
	if slices.Contains(feats, "avx") != avxSupported {
		t.Fatalf("CPUFeatures() = %q but avxSupported = %t", CPUFeatures(), avxSupported)
	}
	if s8Supported && !slices.Contains(feats, "avx2") {
		t.Fatalf("CPUFeatures() = %q but the int8 kernels run on AVX2", CPUFeatures())
	}
}
