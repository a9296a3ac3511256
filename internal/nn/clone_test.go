package nn

import (
	"testing"

	"github.com/ftpim/ftpim/internal/tensor"
)

// cloneTestNet builds a network covering every layer kind that
// CloneLayer must handle.
func cloneTestNet() *Network {
	rng := tensor.NewRNG(7)
	return NewNetwork(
		NewConv2D("c1", 3, 6, 3, 3, 1, 1, true, rng),
		NewBatchNorm2D("bn1", 6),
		NewReLU(),
		NewBasicBlock("blk", 6, 8, 2, rng),
		NewGlobalAvgPool2D(),
		NewLinear("fc", 8, 5, rng),
	)
}

func randInput(seed uint64) *tensor.Tensor {
	x := tensor.New(4, 3, 8, 8)
	tensor.FillNormal(x, tensor.NewRNG(seed), 0, 1)
	return x
}

// TestNetworkCloneForwardIdentical checks a clone's inference output is
// bit-identical to the original's.
func TestNetworkCloneForwardIdentical(t *testing.T) {
	net := cloneTestNet()
	// Perturb BN running stats and add a mask so the clone must carry
	// non-default inference state.
	bn := net.BatchNorms()[0]
	bn.RunningMean.Fill(0.25)
	bn.RunningVar.Fill(1.5)
	p := net.WeightParams()[0]
	p.Mask = tensor.Ones(p.W.Shape()...)
	p.Mask.Data()[0] = 0
	p.W.Data()[0] = 0

	clone := net.Clone()
	x := randInput(11)
	want := net.Forward(x, false)
	got := clone.Forward(x, false)
	if !got.Equal(want) {
		t.Fatal("clone forward differs from original")
	}
}

// TestNetworkCloneIsDeep checks clones share no parameter, mask, or
// batch-norm storage with the original.
func TestNetworkCloneIsDeep(t *testing.T) {
	net := cloneTestNet()
	net.WeightParams()[0].Mask = tensor.Ones(net.WeightParams()[0].W.Shape()...)
	clone := net.Clone()

	np, cp := net.Params(), clone.Params()
	if len(np) != len(cp) {
		t.Fatalf("param count %d vs %d", len(np), len(cp))
	}
	x := randInput(13)
	// Forward reuses the layer-owned output buffer, so snapshot it
	// before running the network again.
	want := net.Forward(x, false).Clone()

	for _, p := range cp {
		p.W.Fill(42)
		if p.Mask != nil {
			p.Mask.Fill(0)
		}
	}
	for _, bn := range clone.BatchNorms() {
		bn.RunningMean.Fill(-9)
		bn.RunningVar.Fill(9)
	}
	if got := net.Forward(x, false); !got.Equal(want) {
		t.Fatal("mutating the clone changed the original's output")
	}
	for i := range np {
		if np[i].W == cp[i].W || np[i].Grad == cp[i].Grad {
			t.Fatalf("param %d shares storage with its clone", i)
		}
		if np[i].Name != cp[i].Name || np[i].Decay != cp[i].Decay {
			t.Fatalf("param %d metadata not copied", i)
		}
	}
}

// TestNetworkCloneStateRoundTrip checks a clone accepts the original's
// snapshot (i.e. the architectures match exactly).
func TestNetworkCloneStateRoundTrip(t *testing.T) {
	net := cloneTestNet()
	clone := net.Clone()
	if err := clone.Restore(net.Snapshot()); err != nil {
		t.Fatalf("clone rejected original snapshot: %v", err)
	}
}

// TestConvForwardParallelEquivalence checks the panel-sharded implicit-
// GEMM conv forward is bit-identical to the serial path, including
// shapes where the column panels do not divide evenly across shards.
func TestConvForwardParallelEquivalence(t *testing.T) {
	rng := tensor.NewRNG(3)
	for _, n := range []int{1, 2, 3, 5, 8, 13} {
		conv := NewConv2D("c", 4, 9, 3, 3, 1, 1, true, rng)
		x := tensor.New(n, 4, 10, 10)
		tensor.FillNormal(x, tensor.NewRNG(uint64(n)), 0, 1)

		var want *tensor.Tensor
		old := tensor.SetWorkers(1)
		want = conv.Forward(x, false).Clone() // Forward reuses its buffer
		for _, w := range []int{2, 4, 16} {
			tensor.SetWorkers(w)
			if got := conv.Forward(x, false); !got.Equal(want) {
				tensor.SetWorkers(old)
				t.Fatalf("conv forward differs at n=%d workers=%d", n, w)
			}
		}
		tensor.SetWorkers(old)
	}
}

// TestConvTrainAfterParallelForward checks backward still works when
// the preceding forward took the parallel branch.
func TestConvTrainAfterParallelForward(t *testing.T) {
	old := tensor.SetWorkers(8)
	defer tensor.SetWorkers(old)
	rng := tensor.NewRNG(5)
	conv := NewConv2D("c", 3, 8, 3, 3, 1, 1, false, rng)
	x := tensor.New(6, 3, 12, 12)
	tensor.FillNormal(x, tensor.NewRNG(2), 0, 1)
	out := conv.Forward(x, true)
	dX := conv.Backward(out)
	if !dX.SameShape(x) {
		t.Fatalf("backward shape %v", dX.Shape())
	}
	if !conv.Weight.Grad.IsFinite() {
		t.Fatal("non-finite weight gradient")
	}
}

// TestConvBackwardParallelEquivalence checks the sample-sharded fused
// backward produces bit-identical gradients at every worker count,
// including batches that do not divide evenly across shards.
func TestConvBackwardParallelEquivalence(t *testing.T) {
	rng := tensor.NewRNG(17)
	for _, n := range []int{1, 3, 5, 8} {
		conv := NewConv2D("c", 4, 9, 3, 3, 1, 1, false, rng)
		x := tensor.New(n, 4, 10, 10)
		tensor.FillNormal(x, tensor.NewRNG(uint64(n)+40), 0, 1)
		dOut := tensor.New(n, 9, 10, 10)
		tensor.FillNormal(dOut, tensor.NewRNG(uint64(n)+80), 0, 1)

		old := tensor.SetWorkers(1)
		conv.Forward(x, true)
		wantDX := conv.Backward(dOut).Clone() // Backward reuses its buffer
		wantDW := conv.Weight.Grad.Clone()
		for _, w := range []int{2, 4, 16} {
			tensor.SetWorkers(w)
			conv.Weight.Grad.Zero()
			conv.Forward(x, true)
			dX := conv.Backward(dOut)
			if !dX.Equal(wantDX) || !conv.Weight.Grad.Equal(wantDW) {
				tensor.SetWorkers(old)
				t.Fatalf("conv backward differs at n=%d workers=%d", n, w)
			}
		}
		tensor.SetWorkers(old)
	}
}
