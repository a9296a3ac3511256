package nn

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"github.com/ftpim/ftpim/internal/tensor"
)

func TestReLUForward(t *testing.T) {
	r := NewReLU()
	x := tensor.FromSlice([]float32{-2, 0, 3, -0.5}, 1, 4)
	y := r.Forward(x, false)
	want := []float32{0, 0, 3, 0}
	for i, v := range y.Data() {
		if v != want[i] {
			t.Fatalf("ReLU got %v", y.Data())
		}
	}
}

// reluEdgeBits are float32 bit patterns around every boundary of the
// ReLU select: ±0, subnormals, ±1, the largest finite values, ±Inf,
// signalling and quiet NaNs of both signs, and 256 random patterns.
func reluEdgeBits() []uint32 {
	bits := []uint32{
		0x00000000, 0x80000000, 0x00000001, 0x80000001, 0x007fffff,
		0x00800000, 0x3f800000, 0xbf800000, 0x7f7fffff, 0xff7fffff,
		0x7f800000, 0xff800000, 0x7f800001, 0x7fc00000, 0xffc00000,
		0x7fffffff, 0xffffffff,
	}
	r := tensor.NewRNG(5)
	for i := 0; i < 256; i++ {
		bits = append(bits, uint32(r.Uint64()))
	}
	return bits
}

// TestReLUMaskMatchesComparison pins the branch-free select to the
// comparison it replaces, `if v > 0 { v } else { +0 }`, bit for bit —
// -0, both NaN signs, ±Inf, subnormals and the values around each
// boundary included — in both modes, and the mask (tensor.ReLUMask)
// to all ones exactly where v > 0. Backward gates by the output, which
// is > 0 exactly where v is.
func TestReLUMaskMatchesComparison(t *testing.T) {
	bits := reluEdgeBits()
	xs := make([]float32, len(bits))
	for i, b := range bits {
		xs[i] = math.Float32frombits(b)
	}
	x := tensor.FromSlice(xs, 1, len(xs))
	for _, train := range []bool{false, true} {
		relu := NewReLU()
		y := relu.Forward(x, train).Data()
		for i, v := range xs {
			var want float32
			if v > 0 {
				want = v
			}
			if math.Float32bits(y[i]) != math.Float32bits(want) {
				t.Fatalf("train=%v: ReLU(%#08x) = %#08x, want %#08x", train, bits[i], math.Float32bits(y[i]), math.Float32bits(want))
			}
			wantMask := uint32(0)
			if v > 0 {
				wantMask = ^uint32(0)
			}
			if m := tensor.ReLUMask(v); m != wantMask {
				t.Fatalf("ReLUMask(%#08x) = %#08x, want %#08x", bits[i], m, wantMask)
			}
			if (y[i] > 0) != (v > 0) {
				t.Fatalf("train=%v: ReLU(%#08x) = %#08x is a gate of %t, want %t", train, bits[i], math.Float32bits(y[i]), y[i] > 0, v > 0)
			}
		}
	}
}

// TestReLUBackwardMatchesBranch pins the branch-free backward to the
// branch it replaces, `if x > 0 { g } else { +0 }`, bit for bit, on
// every pairing of an edge input x with an edge gradient g: NaN
// gradients keep their payload where the unit was active, and ±Inf and
// -0 pass through unchanged.
func TestReLUBackwardMatchesBranch(t *testing.T) {
	bits := reluEdgeBits()
	n := len(bits)
	xs := make([]float32, n*n)
	gs := make([]float32, n*n)
	for i, xb := range bits {
		for j, gb := range bits {
			xs[i*n+j] = math.Float32frombits(xb)
			gs[i*n+j] = math.Float32frombits(gb)
		}
	}
	relu := NewReLU()
	relu.Forward(tensor.FromSlice(xs, n, n), true)
	d := relu.Backward(tensor.FromSlice(gs, n, n)).Data()
	for i, x := range xs {
		var want float32
		if x > 0 {
			want = gs[i]
		}
		if math.Float32bits(d[i]) != math.Float32bits(want) {
			t.Fatalf("ReLU backward at x=%#08x, g=%#08x gives %#08x, want %#08x",
				math.Float32bits(x), math.Float32bits(gs[i]), math.Float32bits(d[i]), math.Float32bits(want))
		}
	}
}

func TestReLUBackwardMasks(t *testing.T) {
	r := NewReLU()
	x := tensor.FromSlice([]float32{-1, 2}, 1, 2)
	r.Forward(x, true)
	d := r.Backward(tensor.FromSlice([]float32{5, 7}, 1, 2))
	if d.At(0, 0) != 0 || d.At(0, 1) != 7 {
		t.Fatalf("ReLU backward got %v", d.Data())
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	f := NewFlatten()
	x := tensor.New(2, 3, 4, 5)
	y := f.Forward(x, true)
	if y.Dim(0) != 2 || y.Dim(1) != 60 {
		t.Fatalf("Flatten shape %v", y.Shape())
	}
	d := f.Backward(tensor.New(2, 60))
	if d.Rank() != 4 || d.Dim(3) != 5 {
		t.Fatalf("Flatten backward shape %v", d.Shape())
	}
}

func TestGlobalAvgPool(t *testing.T) {
	g := NewGlobalAvgPool2D()
	x := tensor.FromSlice([]float32{1, 2, 3, 4, 10, 10, 10, 10}, 1, 2, 2, 2)
	y := g.Forward(x, true)
	if y.At(0, 0) != 2.5 || y.At(0, 1) != 10 {
		t.Fatalf("GAP got %v", y.Data())
	}
	d := g.Backward(tensor.FromSlice([]float32{4, 8}, 1, 2))
	for i := 0; i < 4; i++ {
		if d.Data()[i] != 1 {
			t.Fatalf("GAP backward got %v", d.Data())
		}
	}
}

func TestLinearForwardKnown(t *testing.T) {
	r := tensor.NewRNG(1)
	l := NewLinear("fc", 2, 2, r)
	l.Weight.W.CopyFrom(tensor.FromSlice([]float32{1, 2, 3, 4}, 2, 2))
	l.Bias.W.CopyFrom(tensor.FromSlice([]float32{10, 20}, 2))
	x := tensor.FromSlice([]float32{1, 1}, 1, 2)
	y := l.Forward(x, false)
	if y.At(0, 0) != 13 || y.At(0, 1) != 27 {
		t.Fatalf("Linear got %v", y.Data())
	}
}

func TestConvMatchesLinearFor1x1(t *testing.T) {
	// A 1×1 convolution over a 1×1 image is exactly a linear layer.
	r := tensor.NewRNG(2)
	conv := NewConv2D("c", 3, 4, 1, 1, 1, 0, true, r)
	x := tensor.New(2, 3, 1, 1)
	tensor.FillNormal(x, r, 0, 1)
	y := conv.Forward(x, false)
	for i := 0; i < 2; i++ {
		for oc := 0; oc < 4; oc++ {
			var want float32
			for ic := 0; ic < 3; ic++ {
				want += conv.Weight.W.At(oc, ic) * x.At(i, ic, 0, 0)
			}
			want += conv.Bias.W.At(oc)
			if got := y.At(i, oc, 0, 0); math.Abs(float64(got-want)) > 1e-5 {
				t.Fatalf("1x1 conv mismatch: %v vs %v", got, want)
			}
		}
	}
}

func TestBatchNormTrainNormalizes(t *testing.T) {
	r := tensor.NewRNG(3)
	bn := NewBatchNorm2D("bn", 2)
	x := tensor.New(8, 2, 3, 3)
	tensor.FillNormal(x, r, 5, 2) // deliberately off-center
	y := bn.Forward(x, true)
	// Per channel, output should be ~N(0,1) with gamma=1 beta=0.
	for c := 0; c < 2; c++ {
		var sum, sq float64
		cnt := 0
		for i := 0; i < 8; i++ {
			for j := 0; j < 9; j++ {
				v := float64(y.Data()[(i*2+c)*9+j])
				sum += v
				sq += v * v
				cnt++
			}
		}
		mean := sum / float64(cnt)
		variance := sq/float64(cnt) - mean*mean
		if math.Abs(mean) > 1e-4 || math.Abs(variance-1) > 1e-3 {
			t.Fatalf("channel %d not normalized: mean=%v var=%v", c, mean, variance)
		}
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	r := tensor.NewRNG(4)
	bn := NewBatchNorm2D("bn", 1)
	x := tensor.New(16, 1, 2, 2)
	tensor.FillNormal(x, r, 3, 1)
	for i := 0; i < 50; i++ { // converge the running stats
		bn.Forward(x, true)
	}
	y := bn.Forward(x, false).Clone() // Forward reuses its buffer per call
	if math.Abs(y.Mean()) > 0.1 {
		t.Fatalf("eval output mean %v, want ≈0", y.Mean())
	}
	// Eval must be deterministic and independent of batch composition.
	single := tensor.FromSlice(x.Data()[:4], 1, 1, 2, 2)
	y1 := bn.Forward(single, false)
	for j := 0; j < 4; j++ {
		if math.Abs(float64(y1.Data()[j]-y.Data()[j])) > 1e-6 {
			t.Fatal("eval-mode BN must not depend on batch composition")
		}
	}
}

func TestSoftmaxCrossEntropyKnown(t *testing.T) {
	logits := tensor.FromSlice([]float32{0, 0, 0}, 1, 3)
	loss, grad := SoftmaxCrossEntropy(logits, []int{1})
	if math.Abs(loss-math.Log(3)) > 1e-6 {
		t.Fatalf("uniform loss=%v want ln3", loss)
	}
	// grad = (1/3 - onehot)/1
	if math.Abs(float64(grad.At(0, 1))-(1.0/3-1)) > 1e-6 {
		t.Fatalf("grad=%v", grad.Data())
	}
}

func TestSoftmaxCrossEntropyGradSumsToZero(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		n := 1 + int(r.Uint64()%5)
		c := 2 + int(r.Uint64()%6)
		logits := tensor.New(n, c)
		tensor.FillNormal(logits, r, 0, 3)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = int(r.Uint64() % uint64(c))
		}
		_, g := SoftmaxCrossEntropy(logits, labels)
		// Each row of the gradient sums to zero (softmax sums to 1,
		// one-hot sums to 1).
		for i := 0; i < n; i++ {
			var s float64
			for _, v := range g.Row(i) {
				s += float64(v)
			}
			if math.Abs(s) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestParamMaskAndSparsity(t *testing.T) {
	p := NewParam("w", 4)
	p.W.CopyFrom(tensor.FromSlice([]float32{1, 2, 3, 4}, 4))
	p.Mask = tensor.FromSlice([]float32{1, 0, 1, 0}, 4)
	p.ApplyMask()
	if p.W.At(1) != 0 || p.W.At(3) != 0 || p.W.At(0) != 1 {
		t.Fatalf("mask not applied: %v", p.W.Data())
	}
	if p.Sparsity() != 0.5 {
		t.Fatalf("sparsity=%v", p.Sparsity())
	}
}

func TestNetworkSaveLoadRoundTrip(t *testing.T) {
	r := tensor.NewRNG(5)
	build := func() *Network {
		rr := tensor.NewRNG(99) // identical-architecture twin
		return NewNetwork(
			NewConv2D("c", 1, 2, 3, 3, 1, 1, false, rr),
			NewBatchNorm2D("bn", 2),
			NewReLU(),
			NewGlobalAvgPool2D(),
			NewLinear("fc", 2, 3, rr),
		)
	}
	a := build()
	// Touch BN stats and weights so they differ from init.
	x := tensor.New(4, 1, 5, 5)
	tensor.FillNormal(x, r, 1, 2)
	a.Forward(x, true)
	a.Params()[0].Mask = tensor.Ones(a.Params()[0].W.Shape()...)

	b := build()
	if err := b.Restore(a.Snapshot()); err != nil {
		t.Fatal(err)
	}
	outA := a.Forward(x, false)
	outB := b.Forward(x, false)
	if !outA.AllClose(outB, 1e-6) {
		t.Fatal("loaded network must reproduce outputs exactly")
	}
	if b.Params()[0].Mask == nil {
		t.Fatal("mask not restored")
	}
}

func TestNetworkLoadShapeMismatch(t *testing.T) {
	r := tensor.NewRNG(6)
	a := NewNetwork(NewLinear("fc", 3, 2, r))
	b := NewNetwork(NewLinear("fc", 4, 2, r))
	if err := b.Restore(a.Snapshot()); err == nil {
		t.Fatal("expected shape mismatch error")
	}
}

// A Restore that fails on a late tensor must not have copied the
// earlier ones: a 10-class snapshot restored into a 100-class twin
// matches up to the classifier and must leave the twin untouched.
func TestRestoreFailureLeavesNetworkUnchanged(t *testing.T) {
	build := func(classes int, seed uint64) *Network {
		r := tensor.NewRNG(seed)
		return NewNetwork(
			NewConv2D("c", 1, 2, 3, 3, 1, 1, false, r),
			NewBatchNorm2D("bn", 2),
			NewGlobalAvgPool2D(),
			NewLinear("fc", 2, classes, r),
		)
	}
	c10, c100 := build(10, 1), build(100, 2)
	before := c100.Snapshot()
	if err := c100.Restore(c10.Snapshot()); err == nil {
		t.Fatal("restoring a 10-class snapshot into a 100-class network must fail")
	}
	if !bytes.Equal(c100.Snapshot(), before) {
		t.Fatal("failed Restore changed the network")
	}
	for _, bad := range [][]byte{nil, before[:len(before)-1], append(before[:len(before):len(before)], 0)} {
		if err := c100.Restore(bad); err == nil {
			t.Fatalf("Restore accepted a damaged %d-byte snapshot", len(bad))
		}
	}
}

func TestSnapshotRestore(t *testing.T) {
	r := tensor.NewRNG(7)
	net := NewNetwork(NewLinear("fc", 4, 2, r))
	snap := net.Snapshot()
	w0 := net.Params()[0].W.Clone()
	net.Params()[0].W.Fill(123)
	if err := net.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if !net.Params()[0].W.Equal(w0) {
		t.Fatal("restore did not bring weights back")
	}
}

func TestWeightParamsExcludesBNAndBias(t *testing.T) {
	r := tensor.NewRNG(8)
	net := NewNetwork(
		NewConv2D("c", 1, 2, 3, 3, 1, 1, false, r),
		NewBatchNorm2D("bn", 2),
		NewGlobalAvgPool2D(),
		NewLinear("fc", 2, 3, r),
	)
	wp := net.WeightParams()
	if len(wp) != 2 {
		t.Fatalf("want 2 weight params (conv, fc), got %d", len(wp))
	}
	for _, p := range wp {
		if !p.Decay {
			t.Fatal("WeightParams must be Decay params")
		}
	}
}

func TestNetworkSparsity(t *testing.T) {
	r := tensor.NewRNG(9)
	net := NewNetwork(NewLinear("fc", 4, 1, r))
	if net.Sparsity() != 0 {
		t.Fatal("dense network must report 0 sparsity")
	}
	p := net.WeightParams()[0]
	p.Mask = tensor.FromSlice([]float32{0, 0, 1, 1}, 1, 4)
	if net.Sparsity() != 0.5 {
		t.Fatalf("sparsity=%v", net.Sparsity())
	}
}

func TestBasicBlockShapes(t *testing.T) {
	r := tensor.NewRNG(10)
	b := NewBasicBlock("b", 4, 8, 2, r)
	x := tensor.New(2, 4, 8, 8)
	tensor.FillNormal(x, r, 0, 1)
	y := b.Forward(x, false)
	if y.Dim(1) != 8 || y.Dim(2) != 4 || y.Dim(3) != 4 {
		t.Fatalf("block output shape %v", y.Shape())
	}
	// Identity block preserves shape.
	b2 := NewBasicBlock("b2", 4, 4, 1, r)
	y2 := b2.Forward(x, false)
	if !y2.SameShape(x) {
		t.Fatalf("identity block changed shape: %v", y2.Shape())
	}
}

func TestBasicBlockIdentityPathAtZeroWeights(t *testing.T) {
	// With all conv weights zero and BN beta/gamma at the init values
	// (gamma=1, beta=0, zero input stats), the block reduces to
	// ReLU(shortcut(x)).
	r := tensor.NewRNG(11)
	b := NewBasicBlock("b", 2, 2, 1, r)
	b.Conv1.Weight.W.Zero()
	b.Conv2.Weight.W.Zero()
	x := tensor.New(1, 2, 3, 3)
	tensor.FillNormal(x, r, 0, 1)
	y := b.Forward(x, false)
	for i, v := range x.Data() {
		want := v
		if want < 0 {
			want = 0
		}
		if math.Abs(float64(y.Data()[i]-want)) > 1e-5 {
			t.Fatalf("zero-weight block should be ReLU(x): idx %d got %v want %v", i, y.Data()[i], want)
		}
	}
}

func TestParamString(t *testing.T) {
	if got, want := NewParam("fc.W", 10, 16).String(), "Param(fc.W [10 16])"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}
