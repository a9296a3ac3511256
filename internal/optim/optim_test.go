package optim

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/ftpim/ftpim/internal/nn"
	"github.com/ftpim/ftpim/internal/tensor"
)

// quadratic sets up a single 1-element parameter minimizing f(w) = w².
func quadratic(w0 float32) *nn.Param {
	p := nn.NewParam("w", 1)
	p.W.Data()[0] = w0
	return p
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	p := quadratic(5)
	s := NewSGD([]*nn.Param{p}, 0.1, 0, 0)
	for i := 0; i < 200; i++ {
		s.ZeroGrad()
		p.Grad.Data()[0] = 2 * p.W.Data()[0] // df/dw
		s.Step()
	}
	if w := p.W.Data()[0]; math.Abs(float64(w)) > 1e-4 {
		t.Fatalf("did not converge: w=%v", w)
	}
}

func TestSGDMomentumFasterOnIllConditioned(t *testing.T) {
	// On f(w)=0.5·k·w² with small k, momentum should make more progress
	// than plain SGD in the same step budget.
	run := func(momentum float64) float64 {
		p := quadratic(10)
		s := NewSGD([]*nn.Param{p}, 0.05, momentum, 0)
		for i := 0; i < 50; i++ {
			s.ZeroGrad()
			p.Grad.Data()[0] = 0.1 * p.W.Data()[0]
			s.Step()
		}
		return math.Abs(float64(p.W.Data()[0]))
	}
	if run(0.9) >= run(0) {
		t.Fatal("momentum should converge faster on an ill-conditioned quadratic")
	}
}

func TestSGDWeightDecayShrinksWeights(t *testing.T) {
	p := quadratic(1)
	s := NewSGD([]*nn.Param{p}, 0.1, 0, 0.5)
	s.ZeroGrad() // zero gradient: only decay acts
	s.Step()
	want := float32(1 - 0.1*0.5)
	if got := p.W.Data()[0]; math.Abs(float64(got-want)) > 1e-6 {
		t.Fatalf("decay step got %v want %v", got, want)
	}
}

func TestSGDWeightDecaySkipsNonDecayParams(t *testing.T) {
	p := quadratic(1)
	p.Decay = false
	s := NewSGD([]*nn.Param{p}, 0.1, 0, 0.5)
	s.ZeroGrad()
	s.Step()
	if got := p.W.Data()[0]; got != 1 {
		t.Fatalf("non-decay param changed: %v", got)
	}
}

func TestSGDRespectsMask(t *testing.T) {
	p := nn.NewParam("w", 4)
	p.W.CopyFrom(tensor.FromSlice([]float32{1, 2, 3, 4}, 4))
	p.Mask = tensor.FromSlice([]float32{1, 0, 1, 0}, 4)
	p.ApplyMask()
	s := NewSGD([]*nn.Param{p}, 0.1, 0.9, 0)
	for i := 0; i < 5; i++ {
		s.ZeroGrad()
		for j := range p.Grad.Data() {
			p.Grad.Data()[j] = 1
		}
		s.Step()
	}
	if p.W.At(1) != 0 || p.W.At(3) != 0 {
		t.Fatalf("pruned weights moved: %v", p.W.Data())
	}
	if p.W.At(0) >= 1 {
		t.Fatal("unpruned weights should have moved down")
	}
}

func TestNesterovDiffersFromClassic(t *testing.T) {
	run := func(nesterov bool) float32 {
		p := quadratic(3)
		s := NewSGD([]*nn.Param{p}, 0.1, 0.9, 0)
		s.Nesterov = nesterov
		for i := 0; i < 3; i++ {
			s.ZeroGrad()
			p.Grad.Data()[0] = 2 * p.W.Data()[0]
			s.Step()
		}
		return p.W.Data()[0]
	}
	if run(true) == run(false) {
		t.Fatal("Nesterov and classic momentum should differ after several steps")
	}
}

func TestCosineScheduleEndpoints(t *testing.T) {
	c := NewCosine(0.1, 100)
	if c.LR(0) != 0.1 {
		t.Fatalf("LR(0)=%v", c.LR(0))
	}
	if last := c.LR(99); math.Abs(last) > 1e-12 {
		t.Fatalf("LR(last)=%v want 0", last)
	}
	if c.LR(1000) != 0 {
		t.Fatal("past-end LR should be Final")
	}
}

func TestCosineMonotoneDecreasing(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		epochs := 2 + int(r.Uint64()%200)
		c := NewCosine(0.1, epochs)
		prev := math.Inf(1)
		for e := 0; e < epochs; e++ {
			lr := c.LR(e)
			if lr > prev+1e-12 || lr < 0 {
				return false
			}
			prev = lr
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestConstantScheduleIgnoresEpoch(t *testing.T) {
	c := Constant(0.05)
	for _, e := range []int{-1, 0, 1, 159, 1 << 20} {
		if c.LR(e) != 0.05 {
			t.Fatalf("Constant(0.05).LR(%d)=%v", e, c.LR(e))
		}
	}
}

// TestCosineClampsEpochs: a schedule of at most one epoch holds its
// initial rate, epochs before the first read the initial rate, and a
// nonzero Final is reached at the last epoch with the midpoint halfway.
func TestCosineClampsEpochs(t *testing.T) {
	for _, epochs := range []int{0, 1} {
		if lr := NewCosine(0.1, epochs).LR(5); lr != 0.1 {
			t.Fatalf("Epochs=%d: LR(5)=%v, want the initial 0.1", epochs, lr)
		}
	}
	c := &Cosine{Initial: 0.1, Final: 0.02, Epochs: 11}
	if c.LR(-3) != c.LR(0) || c.LR(0) != 0.1 {
		t.Fatalf("LR(-3)=%v LR(0)=%v, want 0.1", c.LR(-3), c.LR(0))
	}
	if math.Abs(c.LR(10)-0.02) > 1e-15 || c.LR(11) != 0.02 {
		t.Fatalf("LR(10)=%v LR(11)=%v, want Final 0.02", c.LR(10), c.LR(11))
	}
	if math.Abs(c.LR(5)-0.06) > 1e-15 {
		t.Fatalf("midpoint LR(5)=%v, want 0.06", c.LR(5))
	}
}

// TestSGDStepArithmetic pins two update steps, with momentum and weight
// decay, classic and Nesterov, to the documented recurrences computed
// in the same float32 operation order.
func TestSGDStepArithmetic(t *testing.T) {
	const lr, mu, wd = float32(0.1), float32(0.9), float32(0.01)
	grads := []float32{0.5, -0.25}
	for _, nesterov := range []bool{false, true} {
		p := quadratic(2)
		s := NewSGD([]*nn.Param{p}, float64(lr), float64(mu), float64(wd))
		s.Nesterov = nesterov
		w, v := float32(2), float32(0)
		for _, g := range grads {
			p.Grad.Data()[0] = g
			s.Step()
			gj := g + float32(wd*w)
			v = float32(mu*v) + gj
			if nesterov {
				w -= float32(lr * (gj + float32(mu*v)))
			} else {
				w -= float32(lr * v)
			}
			if got := p.W.Data()[0]; got != w {
				t.Fatalf("nesterov=%t: w=%v after gradient %v, want %v", nesterov, got, g, w)
			}
		}
	}
}

// TestSGDStateRoundTripResumesBitIdentical: an optimizer that imports
// another's exported momentum, over a copy of its weights, takes the
// same steps from there on, bit for bit.
func TestSGDStateRoundTripResumesBitIdentical(t *testing.T) {
	newParams := func() []*nn.Param {
		a, b := nn.NewParam("a", 2, 3), nn.NewParam("b", 4)
		b.Decay = false
		tensor.FillNormal(a.W, tensor.NewRNG(1), 0, 1)
		tensor.FillNormal(b.W, tensor.NewRNG(2), 0, 1)
		return []*nn.Param{a, b}
	}
	step := func(s *SGD, ps []*nn.Param, i int) {
		for j, p := range ps {
			tensor.FillNormal(p.Grad, tensor.NewRNG(uint64(100*i+j)), 0, 1)
		}
		s.Step()
	}
	ps := newParams()
	s := NewSGD(ps, 0.05, 0.9, 5e-4)
	for i := 0; i < 3; i++ {
		step(s, ps, i)
	}
	ps2 := newParams()
	for j := range ps2 {
		ps2[j].W.CopyFrom(ps[j].W)
	}
	s2 := NewSGD(ps2, 0.05, 0.9, 5e-4)
	if err := s2.ImportState(s.ExportState()); err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 6; i++ {
		step(s, ps, i)
		step(s2, ps2, i)
	}
	for j := range ps {
		if !ps[j].W.Equal(ps2[j].W) {
			t.Fatalf("param %d: resumed run diverged from the uninterrupted one", j)
		}
	}
}

// TestSGDExportStateIsDeepCopy: later steps do not reach an exported
// state, nor does changing the state reach the optimizer.
func TestSGDExportStateIsDeepCopy(t *testing.T) {
	p := quadratic(1)
	s := NewSGD([]*nn.Param{p}, 0.1, 0.9, 0)
	p.Grad.Data()[0] = 1
	s.Step()
	st := s.ExportState()
	if st[0].Data()[0] != 1 {
		t.Fatalf("exported velocity %v, want 1", st[0].Data()[0])
	}
	s.Step()
	if st[0].Data()[0] != 1 {
		t.Fatal("a step changed the exported state")
	}
	st[0].Data()[0] = 42
	if s.ExportState()[0].Data()[0] == 42 {
		t.Fatal("changing the exported state reached the optimizer")
	}
}

// TestSGDImportStateRejectsMismatch: a state of another length, with a
// missing buffer or of another shape is refused, and the optimizer's
// momentum stays as it was.
func TestSGDImportStateRejectsMismatch(t *testing.T) {
	p := nn.NewParam("w", 2, 2)
	s := NewSGD([]*nn.Param{p}, 0.1, 0.9, 0)
	p.Grad.Fill(1)
	s.Step()
	before := s.ExportState()
	for name, st := range map[string][]*tensor.Tensor{
		"too many":  {tensor.New(2, 2), tensor.New(2, 2)},
		"none":      {},
		"nil":       {nil},
		"bad shape": {tensor.New(4)},
	} {
		if err := s.ImportState(st); err == nil {
			t.Fatalf("%s: ImportState accepted the state", name)
		}
	}
	if !s.ExportState()[0].Equal(before[0]) {
		t.Fatal("a refused import changed the momentum")
	}
}
