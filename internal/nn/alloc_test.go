//go:build !race

// Allocation-regression tests for the workspace-backed hot path.
// Excluded under -race (the race runtime changes allocation behavior);
// workers are pinned to 1 because spawning shard goroutines allocates.

package nn

import (
	"testing"

	"github.com/ftpim/ftpim/internal/tensor"
)

// TestWarmTrainStepAllocs pins the ISSUE budget: a warm forward +
// loss + backward step over a conv/bn/relu/pool/linear stack must stay
// within 2 heap allocations per op.
func TestWarmTrainStepAllocs(t *testing.T) {
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)

	rng := tensor.NewRNG(7)
	net := NewNetwork(
		NewConv2D("c1", 3, 4, 3, 3, 1, 1, true, rng),
		NewBatchNorm2D("bn1", 4),
		NewReLU(),
		NewBasicBlock("b1", 4, 8, 2, rng),
		NewGlobalAvgPool2D(),
		NewFlatten(),
		NewLinear("fc", 8, 5, rng),
	)
	x := tensor.New(2, 3, 8, 8)
	tensor.FillNormal(x, rng, 0, 1)
	labels := []int{1, 3}
	var lossWS tensor.Workspace

	step := func() {
		net.ZeroGrad()
		out := net.Forward(x, true)
		_, dOut := SoftmaxCrossEntropyWS(&lossWS, out, labels)
		net.Backward(dOut)
	}
	for i := 0; i < 3; i++ { // warm all workspaces and scratch
		step()
	}
	if avg := testing.AllocsPerRun(30, step); avg > 2 {
		t.Fatalf("warm train step allocates %.1f/op, budget is 2", avg)
	}
}

// TestWarmConvAllocs isolates the fused implicit-GEMM convolution:
// once the layer's workspace slots (out, dX, dW chunks) and the tensor
// package's panel pool are warm, a forward + backward pair must not
// allocate at all — the column matrix the old lowering materialized is
// gone, not merely pooled.
func TestWarmConvAllocs(t *testing.T) {
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)

	rng := tensor.NewRNG(9)
	conv := NewConv2D("c", 4, 8, 3, 3, 1, 1, false, rng)
	x := tensor.New(4, 4, 12, 12)
	tensor.FillNormal(x, rng, 0, 1)
	dOut := tensor.New(4, 8, 12, 12)
	tensor.FillNormal(dOut, rng, 0, 1)
	step := func() {
		conv.Weight.Grad.Zero()
		conv.Forward(x, true)
		conv.Backward(dOut)
	}
	for i := 0; i < 3; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(30, step); avg > 0 {
		t.Fatalf("warm fused conv fwd+bwd allocates %.1f/op, want 0", avg)
	}
}

// TestWarmEvalForwardAllocs covers the inference path used by
// metrics.Evaluate: repeated eval-mode forwards must not allocate once
// the workspaces are warm, both layer by layer (a conv with a bias
// runs unfused) and fused: a bias-free stem and residual blocks with
// both shortcuts run as fused convs, whose offset tables and epilogue
// constants come from pooled scratch and the layers.
func TestWarmEvalForwardAllocs(t *testing.T) {
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)

	rng := tensor.NewRNG(8)
	nets := map[string]*Network{
		"layer by layer": NewNetwork(
			NewConv2D("c1", 3, 4, 3, 3, 1, 1, true, rng),
			NewBatchNorm2D("bn1", 4),
			NewReLU(),
			NewGlobalAvgPool2D(),
			NewFlatten(),
			NewLinear("fc", 4, 5, rng),
		),
		"fused": NewNetwork(
			NewConv2D("c1", 3, 4, 3, 3, 1, 1, false, rng),
			NewBatchNorm2D("bn1", 4),
			NewReLU(),
			NewBasicBlock("b1", 4, 4, 1, rng),
			NewBasicBlock("b2", 4, 8, 2, rng),
			NewGlobalAvgPool2D(),
			NewFlatten(),
			NewLinear("fc", 8, 5, rng),
		),
	}
	x := tensor.New(2, 3, 8, 8)
	tensor.FillNormal(x, rng, 0, 1)
	one := tensor.New(1, 3, 8, 8)
	copy(one.Data(), x.Data())
	for name, net := range nets {
		for i := 0; i < 3; i++ {
			net.Forward(x, false)
		}
		if avg := testing.AllocsPerRun(30, func() { net.Forward(x, false) }); avg > 0 {
			t.Fatalf("%s: warm eval forward allocates %.1f/op, want 0", name, avg)
		}
		// A smaller batch runs in the planes the larger one sized.
		alternate := func() {
			net.Forward(x, false)
			net.Forward(one, false)
			net.Forward(x, false)
		}
		if avg := testing.AllocsPerRun(10, alternate); avg > 0 {
			t.Fatalf("%s: warm eval forwards at batches 2, 1 and 2 allocate %.1f/op, want 0", name, avg)
		}
	}
}

// TestQuantizedInferWarmAllocs pins the int8 inference path: once the
// per-layer int8 scratch (xq, patches, int32 accumulators) and float
// workspaces are warm, a quantized forward must not allocate — the
// quantized serve hot path depends on this.
func TestQuantizedInferWarmAllocs(t *testing.T) {
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)

	rng := tensor.NewRNG(11)
	net := NewNetwork(
		NewConv2D("c1", 3, 8, 3, 3, 1, 1, true, rng),
		NewBatchNorm2D("bn1", 8),
		NewReLU(),
		NewBasicBlock("b1", 8, 16, 2, rng),
		NewGlobalAvgPool2D(),
		NewFlatten(),
		NewLinear("fc", 16, 10, rng),
	)
	calib := tensor.New(4, 3, 12, 12)
	tensor.FillNormal(calib, rng, 0, 1)
	q, err := QuantizeNetwork(net, []*tensor.Tensor{calib})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(4, 3, 12, 12)
	tensor.FillNormal(x, rng, 0, 1)
	for i := 0; i < 3; i++ {
		q.Forward(x, false)
	}
	if avg := testing.AllocsPerRun(30, func() { q.Forward(x, false) }); avg > 0 {
		t.Fatalf("warm quantized forward allocates %.1f/op, want 0", avg)
	}
}
