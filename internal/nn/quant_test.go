package nn

import (
	"fmt"
	"math"
	"testing"

	"github.com/ftpim/ftpim/internal/tensor"
)

// quantTestNet builds a small network covering every layer kind the
// quantizer maps (conv, bn, relu, residual block with option-A
// shortcut, pool, flatten, linear), runs a few training
// steps' worth of forwards so the batch-norm running statistics move
// off their init values, and returns it with a calibration batch.
func quantTestNet(t *testing.T, seed uint64) (*Network, *tensor.Tensor) {
	t.Helper()
	rng := tensor.NewRNG(seed)
	net := NewNetwork(
		NewConv2D("c1", 3, 8, 3, 3, 1, 1, true, rng),
		NewBatchNorm2D("bn1", 8),
		NewReLU(),
		NewBasicBlock("b1", 8, 16, 2, rng),
		NewGlobalAvgPool2D(),
		NewFlatten(),
		NewLinear("fc", 16, 10, rng),
	)
	warm := tensor.New(8, 3, 12, 12)
	for i := 0; i < 4; i++ {
		tensor.FillNormal(warm, rng, 0, 1)
		net.Forward(warm, true) // move BN running stats
	}
	calib := tensor.New(16, 3, 12, 12)
	tensor.FillNormal(calib, rng, 0, 1)
	return net, calib
}

// TestQuantizedCloseToFloat checks the int8 forward tracks the float
// forward within a few percent relative L2 error on the logits —
// the per-network analogue of the <1pp accuracy acceptance bound.
func TestQuantizedCloseToFloat(t *testing.T) {
	net, calib := quantTestNet(t, 41)
	q, err := QuantizeNetwork(net, []*tensor.Tensor{calib})
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(5)
	x := tensor.New(16, 3, 12, 12)
	tensor.FillNormal(x, rng, 0, 1)

	fOut := append([]float32(nil), net.Forward(x, false).Data()...)
	qOut := q.Forward(x, false).Data()
	if len(fOut) != len(qOut) {
		t.Fatalf("output length mismatch: %d vs %d", len(fOut), len(qOut))
	}
	var num, den float64
	for i := range fOut {
		d := float64(fOut[i] - qOut[i])
		num += d * d
		den += float64(fOut[i]) * float64(fOut[i])
	}
	rel := math.Sqrt(num / den)
	if rel > 0.05 {
		t.Fatalf("quantized logits relative L2 error %.4f, want <= 0.05", rel)
	}
}

// TestQuantizedDeterministic pins the quantized path's determinism
// contract: int32 accumulation is associative, so the forward is
// bitwise identical across repeated runs AND across worker counts.
func TestQuantizedDeterministic(t *testing.T) {
	net, calib := quantTestNet(t, 42)
	q, err := QuantizeNetwork(net, []*tensor.Tensor{calib})
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(6)
	x := tensor.New(8, 3, 12, 12)
	tensor.FillNormal(x, rng, 0, 1)

	var ref []float32
	for _, workers := range []int{1, 2, 4, 1} { // trailing 1 = repeat-run check
		prev := tensor.SetWorkers(workers)
		out := q.Forward(x, false).Data()
		tensor.SetWorkers(prev)
		if ref == nil {
			ref = append([]float32(nil), out...)
			continue
		}
		for i, v := range out {
			if v != ref[i] {
				t.Fatalf("workers=%d: output[%d] = %v, want bitwise %v", workers, i, v, ref[i])
			}
		}
	}
}

// TestQuantizeNetworkRepeatable: quantizing the same float network
// twice yields bitwise-identical planes, scales, and outputs.
func TestQuantizeNetworkRepeatable(t *testing.T) {
	net, calib := quantTestNet(t, 43)
	q1, err := QuantizeNetwork(net, []*tensor.Tensor{calib})
	if err != nil {
		t.Fatal(err)
	}
	q2, err := QuantizeNetwork(net, []*tensor.Tensor{calib})
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(7)
	x := tensor.New(4, 3, 12, 12)
	tensor.FillNormal(x, rng, 0, 1)
	o1 := q1.Forward(x, false).Data()
	o2 := q2.Forward(x, false).Data()
	for i, v := range o1 {
		if v != o2[i] {
			t.Fatalf("re-quantized output[%d] = %v, want bitwise %v", i, o2[i], v)
		}
	}
}

// TestQuantizedCloneSharesWeightsIndependentScratch: a clone must
// alias the immutable int8 planes (that is the zero-copy contract the
// FTPM loader relies on) while producing bitwise-identical outputs
// from its own scratch.
func TestQuantizedCloneSharesWeightsIndependentScratch(t *testing.T) {
	net, calib := quantTestNet(t, 44)
	q, err := QuantizeNetwork(net, []*tensor.Tensor{calib})
	if err != nil {
		t.Fatal(err)
	}
	c := q.Clone()

	qc, ok := q.Layers[0].(*QConv2D)
	if !ok {
		t.Fatalf("layer 0 is %T, want *QConv2D", q.Layers[0])
	}
	cc := c.Layers[0].(*QConv2D)
	if &qc.WQ[0] != &cc.WQ[0] || &qc.WScale[0] != &cc.WScale[0] {
		t.Fatal("clone copied weight planes; they must be shared")
	}

	rng := tensor.NewRNG(8)
	x := tensor.New(4, 3, 12, 12)
	tensor.FillNormal(x, rng, 0, 1)
	o1 := append([]float32(nil), q.Forward(x, false).Data()...)

	// Run the clone on a different batch first: if scratch were
	// shared, this would clobber the original's buffers mid-flight.
	y := tensor.New(4, 3, 12, 12)
	tensor.FillNormal(y, rng, 0, 1)
	c.Forward(y, false)
	o2 := c.Forward(x, false).Data()
	for i, v := range o1 {
		if v != o2[i] {
			t.Fatalf("clone output[%d] = %v, want bitwise %v", i, o2[i], v)
		}
	}
}

// TestQuantizedNetworkTrainPanics: the quantized path has no training
// mode; asking for one is a programming error, not a silent fallback.
func TestQuantizedNetworkTrainPanics(t *testing.T) {
	net, calib := quantTestNet(t, 45)
	q, err := QuantizeNetwork(net, []*tensor.Tensor{calib})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Forward(train=true) did not panic")
		}
	}()
	q.Forward(calib, true)
}

// TestQuantizeNetworkErrors covers the argument contract.
func TestQuantizeNetworkErrors(t *testing.T) {
	if _, err := QuantizeNetwork(nil, nil); err == nil {
		t.Fatal("nil network accepted")
	}
	net, _ := quantTestNet(t, 46)
	if _, err := QuantizeNetwork(net, nil); err == nil {
		t.Fatal("empty calibration set accepted")
	}
}

// resNetNet builds a CIFAR-style ResNet — a 3×3 stem, three stages of
// blocks at the given widths (stride 2 entering stages 2 and 3), a
// global pool and a linear head — over inC×h×w inputs and moves its
// batch-norm statistics off their init values. It returns the net and
// the RNG it drew from.
func resNetNet(seed uint64, inC, h, w, blocksPerStage, classes int, widths [3]int) (*Network, *tensor.RNG) {
	rng := tensor.NewRNG(seed)
	layers := []Layer{
		NewConv2D("conv1", inC, widths[0], 3, 3, 1, 1, false, rng),
		NewBatchNorm2D("bn1", widths[0]),
		NewReLU(),
	}
	c := widths[0]
	for stage, outC := range widths {
		for b := 0; b < blocksPerStage; b++ {
			stride := 1
			if stage > 0 && b == 0 {
				stride = 2
			}
			layers = append(layers, NewBasicBlock("block", c, outC, stride, rng))
			c = outC
		}
	}
	layers = append(layers, NewGlobalAvgPool2D(), NewLinear("fc", c, classes, rng))
	net := NewNetwork(layers...)
	warm := tensor.New(8, inC, h, w)
	for i := 0; i < 3; i++ {
		tensor.FillNormal(warm, rng, 0, 1)
		net.Forward(warm, true)
	}
	return net, rng
}

// resNetQNet is resNetNet quantized with a calibration batch of its
// own.
func resNetQNet(tb testing.TB, seed uint64, inC, h, w, blocksPerStage, classes int, widths [3]int) *QuantizedNetwork {
	tb.Helper()
	net, rng := resNetNet(seed, inC, h, w, blocksPerStage, classes, widths)
	calib := tensor.New(32, inC, h, w)
	tensor.FillNormal(calib, rng, 0, 1)
	q, err := QuantizeNetwork(net, []*tensor.Tensor{calib})
	if err != nil {
		tb.Fatal(err)
	}
	return q
}

// reproQNet is the repro preset's model: ResNet-20 at width 0.25 over
// 3×12×12 images with 10 classes.
func reproQNet(tb testing.TB, seed uint64) *QuantizedNetwork {
	return resNetQNet(tb, seed, 3, 12, 12, 3, 10, [3]int{4, 8, 16})
}

// BenchmarkForward times the warm float forward (eval mode) of the
// repro ResNet-20 ×0.25 at 12×12, one image and a full serving batch:
// the pass a Monte-Carlo defect run or a float-lane request makes. BenchmarkQuantizedForward is its int8
// counterpart on the same net.
func BenchmarkForward(b *testing.B) {
	net, _ := resNetNet(3, 3, 12, 12, 3, 10, [3]int{4, 8, 16})
	for _, n := range []int{1, 32} {
		x := tensor.New(n, 3, 12, 12)
		tensor.FillNormal(x, tensor.NewRNG(4), 0, 1)
		b.Run(fmt.Sprintf("batch%d", n), func(b *testing.B) {
			net.Forward(x, false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Forward(x, false)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n)/1e6, "ms/image")
		})
	}
}

// BenchmarkQuantizedForward times the warm int8 forward of the repro
// ResNet-20 ×0.25 at 12×12, one image and a full serving batch.
func BenchmarkQuantizedForward(b *testing.B) {
	q := reproQNet(b, 3)
	for _, n := range []int{1, 32} {
		x := tensor.New(n, 3, 12, 12)
		tensor.FillNormal(x, tensor.NewRNG(4), 0, 1)
		b.Run(fmt.Sprintf("batch%d", n), func(b *testing.B) {
			q.Forward(x, false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Forward(x, false)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n)/1e6, "ms/image")
		})
	}
}

// TestNumParamsCountsStoredElements: the float network counts every
// learnable element, and the int8 mirror stores as many (int8 weights,
// biases and the batch-norm affines), which is what a server reports.
func TestNumParamsCountsStoredElements(t *testing.T) {
	net, calib := quantTestNet(t, 45)
	want := 3*8*9 + 8 + // c1 with bias
		2*8 + // bn1
		8*16*9 + 2*16 + // block conv1 (bias-free) and its batch norm
		16*16*9 + 2*16 + // block conv2 and its batch norm
		16*10 + 10 // fc
	if got := net.NumParams(); got != want {
		t.Fatalf("Network.NumParams=%d, want %d", got, want)
	}
	q, err := QuantizeNetwork(net, []*tensor.Tensor{calib})
	if err != nil {
		t.Fatal(err)
	}
	if got := q.NumParams(); got != want {
		t.Fatalf("QuantizedNetwork.NumParams=%d, want %d", got, want)
	}
}

// TestQIdentityIsTransparent: the identity layer that FTPM's layer
// kind decodes to changes no output bit, no parameter count and no
// shape check, in the network and in its clone.
func TestQIdentityIsTransparent(t *testing.T) {
	net, calib := quantTestNet(t, 46)
	q, err := QuantizeNetwork(net, []*tensor.Tensor{calib})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(5, 3, 12, 12)
	tensor.FillNormal(x, tensor.NewRNG(47), 0, 1)
	want := q.Forward(x, false).Clone()
	params := q.NumParams()

	// Both forms the decoder and the type switches accept: the pointer
	// first, the value after the residual block.
	withID := &QuantizedNetwork{Layers: []QLayer{NewQIdentity()}}
	withID.Layers = append(withID.Layers, q.Layers[:4]...)
	withID.Layers = append(withID.Layers, QIdentity{})
	withID.Layers = append(withID.Layers, q.Layers[4:]...)
	for name, n := range map[string]*QuantizedNetwork{"network": withID, "clone": withID.Clone()} {
		if got := n.Forward(x, false); !got.Equal(want) {
			t.Fatalf("%s: identity layers changed the logits", name)
		}
		if n.NumParams() != params {
			t.Fatalf("%s: NumParams=%d, want %d", name, n.NumParams(), params)
		}
		if err := n.CheckShape(3, 12, 12, 10); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
