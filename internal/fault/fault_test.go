package fault

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/ftpim/ftpim/internal/tensor"
)

func randTensors(r *tensor.RNG, sizes ...int) []*tensor.Tensor {
	var ts []*tensor.Tensor
	for _, n := range sizes {
		t := tensor.New(n)
		tensor.FillNormal(t, r, 0, 1)
		ts = append(ts, t)
	}
	return ts
}

func TestChenModelSplit(t *testing.T) {
	m := ChenModel()
	p0, p1 := m.Split(0.1079) // 1.75 + 9.04 = 10.79 scale
	if math.Abs(p0-0.0175) > 1e-9 || math.Abs(p1-0.0904) > 1e-9 {
		t.Fatalf("split = %v %v, want 0.0175 0.0904", p0, p1)
	}
	if math.Abs(m.P1()-9.04/10.79) > 1e-12 {
		t.Fatalf("P1=%v", m.P1())
	}
}

func TestSplitSumsToTotal(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		psa := r.Float64()
		p0, p1 := ChenModel().Split(psa)
		return math.Abs(p0+p1-psa) < 1e-12 && p0 >= 0 && p1 >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInjectZeroRateIsIdentity(t *testing.T) {
	r := tensor.NewRNG(1)
	ts := randTensors(r, 100, 50)
	orig := []*tensor.Tensor{ts[0].Clone(), ts[1].Clone()}
	inj := NewInjector(ChenModel(), ts)
	l := inj.Inject(r.Stream("f"), 0)
	if !ts[0].Equal(orig[0]) || !ts[1].Equal(orig[1]) {
		t.Fatal("psa=0 must not change weights")
	}
	if sa0, sa1 := l.Counts(); sa0 != 0 || sa1 != 0 {
		t.Fatal("psa=0 must inject nothing")
	}
	l.Undo() // must be safe
}

func TestInjectUndoRestoresExactly(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		ts := randTensors(r, 200, 37, 113)
		orig := make([]*tensor.Tensor, len(ts))
		for i, tt := range ts {
			orig[i] = tt.Clone()
		}
		inj := NewInjector(ChenModel(), ts)
		psa := 0.3 * r.Float64()
		l := inj.Inject(r.Stream("f"), psa)
		l.Undo()
		for i := range ts {
			if !ts[i].Equal(orig[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestInjectRateMatchesTarget(t *testing.T) {
	r := tensor.NewRNG(2)
	ts := randTensors(r, 200_000)
	inj := NewInjector(ChenModel(), ts)
	for _, psa := range []float64{0.001, 0.01, 0.1} {
		l := inj.Inject(r.Stream("f"), psa)
		got := l.Rate()
		// Binomial std dev ≈ sqrt(psa/n); allow 6 sigma.
		tol := 6 * math.Sqrt(psa/200_000)
		if math.Abs(got-psa) > tol {
			t.Fatalf("rate %v, want %v ± %v", got, psa, tol)
		}
		l.Undo()
	}
}

func TestInjectKindRatio(t *testing.T) {
	r := tensor.NewRNG(3)
	ts := randTensors(r, 500_000)
	inj := NewInjector(ChenModel(), ts)
	l := inj.Inject(r.Stream("f"), 0.05)
	sa0, sa1 := l.Counts()
	gotP1 := float64(sa1) / float64(sa0+sa1)
	if math.Abs(gotP1-9.04/10.79) > 0.01 {
		t.Fatalf("SA1 fraction %v, want ≈%v", gotP1, 9.04/10.79)
	}
	l.Undo()
}

func TestInjectedValuesAreZeroOrWmax(t *testing.T) {
	r := tensor.NewRNG(4)
	ts := randTensors(r, 5000)
	wmax := ts[0].MaxAbs()
	orig := ts[0].Clone()
	inj := NewInjector(ChenModel(), ts)
	inj.Inject(r.Stream("f"), 0.1)
	for i, v := range ts[0].Data() {
		if v == orig.Data()[i] {
			continue // untouched
		}
		if v != 0 && v != wmax && v != -wmax {
			t.Fatalf("faulted weight %v is neither 0 nor ±wmax(%v)", v, wmax)
		}
	}
}

func TestInjectPerTensorWmax(t *testing.T) {
	// Each tensor must use its own scale.
	r := tensor.NewRNG(5)
	small := tensor.Full(0.1, 1000)
	big := tensor.Full(10, 1000)
	inj := NewInjector(Model{Ratio0: 0, Ratio1: 1}, []*tensor.Tensor{small, big}) // all SA1
	inj.Inject(r.Stream("f"), 0.2)
	for _, v := range small.Data() {
		if v != 0.1 && v != -0.1 {
			t.Fatalf("small tensor got foreign scale value %v", v)
		}
	}
	for _, v := range big.Data() {
		if v != 10 && v != -10 {
			t.Fatalf("big tensor got foreign scale value %v", v)
		}
	}
}

func TestInjectDeterministicGivenStream(t *testing.T) {
	r1, r2 := tensor.NewRNG(6), tensor.NewRNG(6)
	ts1 := randTensors(r1, 1000)
	ts2 := randTensors(r2, 1000)
	NewInjector(ChenModel(), ts1).Inject(r1.Stream("f"), 0.05)
	NewInjector(ChenModel(), ts2).Inject(r2.Stream("f"), 0.05)
	if !ts1[0].Equal(ts2[0]) {
		t.Fatal("same stream must inject identically")
	}
}

func TestInjectBadRatePanics(t *testing.T) {
	r := tensor.NewRNG(7)
	inj := NewInjector(ChenModel(), randTensors(r, 10))
	for _, bad := range []float64{-0.1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for psa=%v", bad)
				}
			}()
			inj.Inject(r, bad)
		}()
	}
}

func TestDeviceMapStableAcrossApplies(t *testing.T) {
	r := tensor.NewRNG(9)
	ts := randTensors(r, 2000)
	dm := DrawDeviceMap(r.Stream("dev"), ChenModel(), ts, 0.05)
	l1 := dm.Apply(ts)
	after1 := ts[0].Clone()
	l1.Undo()
	l2 := dm.Apply(ts)
	if !ts[0].Equal(after1) {
		t.Fatal("same device map must pin the same cells to the same values")
	}
	l2.Undo()
}

func TestDeviceMapUndo(t *testing.T) {
	r := tensor.NewRNG(10)
	ts := randTensors(r, 500)
	orig := ts[0].Clone()
	dm := DrawDeviceMap(r.Stream("dev"), ChenModel(), ts, 0.1)
	l := dm.Apply(ts)
	if ts[0].Equal(orig) && dm.NumFaults() > 0 {
		t.Fatal("apply should change weights") // sanity
	}
	l.Undo()
	if !ts[0].Equal(orig) {
		t.Fatal("undo must restore")
	}
}

func TestDeviceMapTracksCurrentWmax(t *testing.T) {
	r := tensor.NewRNG(11)
	ts := []*tensor.Tensor{tensor.Full(1, 100)}
	dm := DrawDeviceMap(r.Stream("dev"), Model{Ratio0: 0, Ratio1: 1}, ts, 0.3)
	ts[0].Scale(5) // reprogram with new scale
	dm.Apply(ts)
	for _, v := range ts[0].Data() {
		if v != 5 && v != -5 {
			t.Fatalf("SA1 should saturate at current wmax 5, got %v", v)
		}
	}
}

func TestDeviceMapMask(t *testing.T) {
	r := tensor.NewRNG(12)
	ts := randTensors(r, 1000)
	dm := DrawDeviceMap(r.Stream("dev"), ChenModel(), ts, 0.05)
	mask := dm.Mask(0)
	healthy, faulty := 0, 0
	for _, m := range mask {
		if m == -1 {
			healthy++
		} else {
			faulty++
		}
	}
	if faulty != dm.NumFaults() {
		t.Fatalf("mask faults %d != map faults %d", faulty, dm.NumFaults())
	}
	if healthy+faulty != 1000 {
		t.Fatal("mask length wrong")
	}
}

func TestDeviceMapShapeMismatchPanics(t *testing.T) {
	r := tensor.NewRNG(13)
	ts := randTensors(r, 100)
	dm := DrawDeviceMap(r.Stream("dev"), ChenModel(), ts, 0.1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong shape")
		}
	}()
	dm.Apply(randTensors(r, 101))
}

func TestKindString(t *testing.T) {
	if SA0.String() != "SA0" || SA1.String() != "SA1" {
		t.Fatal("Kind strings wrong")
	}
}

func TestLesionDoubleUndoSafe(t *testing.T) {
	r := tensor.NewRNG(14)
	ts := randTensors(r, 100)
	orig := ts[0].Clone()
	inj := NewInjector(ChenModel(), ts)
	l := inj.Inject(r.Stream("f"), 0.2)
	l.Undo()
	l.Undo() // second undo must be a no-op
	if !ts[0].Equal(orig) {
		t.Fatal("double undo corrupted weights")
	}
}
