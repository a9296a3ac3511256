package prune

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/ftpim/ftpim/internal/nn"
	"github.com/ftpim/ftpim/internal/tensor"
)

func randParams(r *tensor.RNG, sizes ...int) []*nn.Param {
	var ps []*nn.Param
	for i, n := range sizes {
		p := nn.NewParam("p", n)
		tensor.FillNormal(p.W, r, 0, 1)
		_ = i
		ps = append(ps, p)
	}
	return ps
}

func TestMagnitudePruneSparsityExact(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		ps := randParams(r, 500)
		target := 0.1 + 0.8*r.Float64()
		MagnitudePrune(ps, target, false)
		got := Sparsity(ps)
		// Exactness up to 1 element (ties are measure-zero for normals).
		return math.Abs(got-target) <= 2.0/500
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMagnitudePruneKeepsLargest(t *testing.T) {
	p := nn.NewParam("w", 4)
	p.W.CopyFrom(tensor.FromSlice([]float32{0.1, -5, 0.2, 3}, 4))
	MagnitudePrune([]*nn.Param{p}, 0.5, false)
	d := p.W.Data()
	if d[0] != 0 || d[2] != 0 {
		t.Fatalf("small weights should be pruned: %v", d)
	}
	if d[1] != -5 || d[3] != 3 {
		t.Fatalf("large weights must survive: %v", d)
	}
}

func TestMagnitudePruneGlobalVsPerLayer(t *testing.T) {
	r := tensor.NewRNG(1)
	// Layer A has tiny weights, layer B large ones. Global pruning
	// should wipe out mostly A; per-layer pruning hits both equally.
	mk := func() []*nn.Param {
		a := nn.NewParam("a", 100)
		b := nn.NewParam("b", 100)
		tensor.FillNormal(a.W, r.Stream("a"), 0, 0.01)
		tensor.FillNormal(b.W, r.Stream("b"), 0, 10)
		return []*nn.Param{a, b}
	}
	psG := mk()
	MagnitudePrune(psG, 0.5, true)
	if psG[0].Sparsity() < 0.95 {
		t.Fatalf("global pruning should remove nearly all tiny-layer weights, got %v", psG[0].Sparsity())
	}
	if psG[1].Sparsity() > 0.05 {
		t.Fatalf("global pruning should spare the large layer, got %v", psG[1].Sparsity())
	}
	psL := mk()
	MagnitudePrune(psL, 0.5, false)
	if math.Abs(psL[0].Sparsity()-0.5) > 0.02 || math.Abs(psL[1].Sparsity()-0.5) > 0.02 {
		t.Fatal("per-layer pruning should hit each layer equally")
	}
}

func TestMagnitudePruneZeroSparsityClearsMasks(t *testing.T) {
	r := tensor.NewRNG(2)
	ps := randParams(r, 50)
	MagnitudePrune(ps, 0.5, false)
	if ps[0].Mask == nil {
		t.Fatal("mask expected")
	}
	MagnitudePrune(ps, 0, false)
	if ps[0].Mask != nil {
		t.Fatal("sparsity 0 should clear masks")
	}
}

func TestMagnitudePruneBadSparsityPanics(t *testing.T) {
	r := tensor.NewRNG(3)
	ps := randParams(r, 10)
	for _, bad := range []float64{-0.1, 1.0, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for sparsity %v", bad)
				}
			}()
			MagnitudePrune(ps, bad, false)
		}()
	}
}

func TestProjectTopKExactCount(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		n := 10 + int(r.Uint64()%200)
		x := tensor.New(n)
		tensor.FillNormal(x, r, 0, 1)
		sp := r.Float64() * 0.95
		projectTopK(x, sp)
		zeros := 0
		for _, v := range x.Data() {
			if v == 0 {
				zeros++
			}
		}
		return zeros == int(float64(n)*sp)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestProjectTopKWithTies(t *testing.T) {
	x := tensor.FromSlice([]float32{1, 1, 1, 1, 2, 2}, 6)
	projectTopK(x, 0.5) // zero exactly 3
	zeros := 0
	for _, v := range x.Data() {
		if v == 0 {
			zeros++
		}
	}
	if zeros != 3 {
		t.Fatalf("tie handling broke exact count: %v", x.Data())
	}
	// The 2s must survive.
	if x.At(4) != 2 || x.At(5) != 2 {
		t.Fatal("largest entries must survive ties")
	}
}

func TestADMMPenaltyGradDirection(t *testing.T) {
	// With W ≠ Z and U = 0, the penalty gradient must point from W
	// towards Z (i.e. g = ρ(W−Z)).
	p := nn.NewParam("w", 2)
	p.W.CopyFrom(tensor.FromSlice([]float32{1, -3}, 2))
	a := NewADMM([]*nn.Param{p}, 0.5, 2)
	// Z = projection of W: keeps -3, zeroes 1.
	p.ZeroGrad()
	a.AddPenaltyGrad()
	g := p.Grad.Data()
	if math.Abs(float64(g[0]-2*1)) > 1e-6 { // ρ·(1−0+0)
		t.Fatalf("grad[0]=%v want 2", g[0])
	}
	if math.Abs(float64(g[1])) > 1e-6 { // W=Z there
		t.Fatalf("grad[1]=%v want 0", g[1])
	}
}

func TestADMMDualUpdateReducesResidualOnStaticProblem(t *testing.T) {
	// Minimize ‖W−W0‖² s.t. sparsity: gradient descent on the penalty
	// alone should drive W towards Z and the residual to ~0.
	r := tensor.NewRNG(4)
	p := nn.NewParam("w", 50)
	tensor.FillNormal(p.W, r, 0, 1)
	a := NewADMM([]*nn.Param{p}, 0.6, 1)
	// The primal residual ‖W − Z‖₂.
	residual := func() float64 {
		var sum float64
		for j, w := range p.W.Data() {
			d := float64(w - a.z[0].Data()[j])
			sum += d * d
		}
		return math.Sqrt(sum)
	}
	initial := residual()
	for iter := 0; iter < 200; iter++ {
		p.ZeroGrad()
		a.AddPenaltyGrad()
		for j, g := range p.Grad.Data() {
			p.W.Data()[j] -= 0.1 * g
		}
		if iter%10 == 9 {
			a.UpdateDuals()
		}
	}
	if got := residual(); got > initial*0.05 {
		t.Fatalf("ADMM did not converge: residual %v (initial %v)", got, initial)
	}
}

func TestADMMFinalizeInstallsMasks(t *testing.T) {
	r := tensor.NewRNG(5)
	ps := randParams(r, 100)
	a := NewADMM(ps, 0.7, 1)
	a.Finalize()
	if ps[0].Mask == nil {
		t.Fatal("Finalize must install a mask")
	}
	got := Sparsity(ps)
	if math.Abs(got-0.7) > 0.02 {
		t.Fatalf("finalized sparsity %v, want ≈0.7", got)
	}
	// Weights must be masked immediately.
	zeros := 0
	for _, v := range ps[0].W.Data() {
		if v == 0 {
			zeros++
		}
	}
	if zeros != 70 {
		t.Fatalf("weights not hard-pruned: %d zeros", zeros)
	}
}

func TestADMMBadConfigPanics(t *testing.T) {
	r := tensor.NewRNG(6)
	ps := randParams(r, 10)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic for rho=0")
			}
		}()
		NewADMM(ps, 0.5, 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic for sparsity=1")
			}
		}()
		NewADMM(ps, 1, 1)
	}()
}

func TestSparsityNoMasks(t *testing.T) {
	r := tensor.NewRNG(7)
	ps := randParams(r, 10, 10)
	if Sparsity(ps) != 0 {
		t.Fatal("unmasked params must report 0")
	}
}

// TestADMMStateRoundTripResumesIdentically: an ADMM run that imports
// another's exported Z and U, over a copy of its weights, computes the
// same penalty gradients and dual updates from there on, bit for bit.
func TestADMMStateRoundTripResumesIdentically(t *testing.T) {
	ps := randParams(tensor.NewRNG(6), 40, 25)
	a := NewADMM(ps, 0.5, 0.3)
	advance := func(a *ADMM, ps []*nn.Param) {
		for _, p := range ps {
			p.ZeroGrad()
		}
		a.AddPenaltyGrad()
		for _, p := range ps {
			p.W.Axpy(-0.1, p.Grad)
		}
		a.UpdateDuals()
	}
	for i := 0; i < 3; i++ {
		advance(a, ps)
	}
	ps2 := randParams(tensor.NewRNG(7), 40, 25)
	for j := range ps2 {
		ps2[j].W.CopyFrom(ps[j].W)
	}
	a2 := NewADMM(ps2, 0.5, 0.3)
	if err := a2.ImportState(a.ExportState()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		advance(a, ps)
		advance(a2, ps2)
		for j := range ps {
			if !ps[j].Grad.Equal(ps2[j].Grad) || !ps[j].W.Equal(ps2[j].W) {
				t.Fatalf("step %d, param %d: resumed run diverged", i, j)
			}
		}
	}
	st, st2 := a.ExportState(), a2.ExportState()
	for j := range st.Z {
		if !st.Z[j].Equal(st2.Z[j]) || !st.U[j].Equal(st2.U[j]) {
			t.Fatalf("param %d: Z or U diverged", j)
		}
	}
}

// TestADMMImportStateRejectsMismatch: a nil state, one of another
// length, with a missing tensor or of another shape is refused, and the
// run's Z and U stay as they were.
func TestADMMImportStateRejectsMismatch(t *testing.T) {
	ps := randParams(tensor.NewRNG(8), 10)
	a := NewADMM(ps, 0.5, 1)
	a.UpdateDuals()
	before := a.ExportState()
	good := a.ExportState()
	for name, st := range map[string]*ADMMState{
		"nil":        nil,
		"short Z":    {Z: nil, U: good.U},
		"missing U":  {Z: good.Z, U: []*tensor.Tensor{nil}},
		"bad shape":  {Z: []*tensor.Tensor{tensor.New(2, 5)}, U: good.U},
		"extra pair": {Z: append(good.Z, tensor.New(10)), U: append(good.U, tensor.New(10))},
	} {
		if err := a.ImportState(st); err == nil {
			t.Fatalf("%s: ImportState accepted the state", name)
		}
	}
	after := a.ExportState()
	if !after.Z[0].Equal(before.Z[0]) || !after.U[0].Equal(before.U[0]) {
		t.Fatal("a refused import changed Z or U")
	}
}
