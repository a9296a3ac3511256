package reram

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/ftpim/ftpim/internal/fault"
	"github.com/ftpim/ftpim/internal/nn"
	"github.com/ftpim/ftpim/internal/tensor"
)

func TestCrossbarProgramRead(t *testing.T) {
	x := NewCrossbar(4, 3, 0, 0.1, 10)
	x.Program(2, 1, 5)
	if x.Target(2, 1) != 5 || x.Effective(2, 1) != 5 {
		t.Fatal("program/read mismatch")
	}
	// Untouched cells sit at Gmin.
	if x.Effective(0, 0) != 0.1 {
		t.Fatal("default conductance should be Gmin")
	}
}

func TestCrossbarQuantizeClamps(t *testing.T) {
	x := NewCrossbar(1, 1, 0, 1, 2)
	if x.Quantize(0) != 1 || x.Quantize(5) != 2 {
		t.Fatal("clamping failed")
	}
}

func TestCrossbarQuantizeLevels(t *testing.T) {
	x := NewCrossbar(1, 1, 3, 0, 1) // levels at 0, 0.5, 1
	cases := map[float64]float64{0.1: 0, 0.3: 0.5, 0.5: 0.5, 0.8: 1, 0.74: 0.5}
	for in, want := range cases {
		if got := x.Quantize(in); math.Abs(got-want) > 1e-12 {
			t.Fatalf("Quantize(%v)=%v want %v", in, got, want)
		}
	}
}

func TestCrossbarFaultsOverrideReads(t *testing.T) {
	x := NewCrossbar(2, 2, 0, 0.1, 10)
	x.Program(0, 0, 5)
	x.SetFault(0, 0, FaultSA0)
	if x.Effective(0, 0) != 0.1 {
		t.Fatal("SA0 must read Gmin")
	}
	x.SetFault(0, 0, FaultSA1)
	if x.Effective(0, 0) != 10 {
		t.Fatal("SA1 must read Gmax")
	}
	if x.Target(0, 0) != 5 {
		t.Fatal("fault must not clobber the programmed target")
	}
	x.ClearFaults()
	if x.Effective(0, 0) != 5 {
		t.Fatal("ClearFaults must restore reads")
	}
}

func TestCrossbarInjectFaultsRate(t *testing.T) {
	rng := tensor.NewRNG(1)
	x := NewCrossbar(200, 200, 0, 0.1, 10)
	n := x.InjectFaults(rng, fault.ChenModel(), 0.05)
	got := float64(n) / 40000
	if math.Abs(got-0.05) > 0.01 {
		t.Fatalf("fault rate %v, want ≈0.05", got)
	}
	if x.NumFaults() != n {
		t.Fatal("NumFaults mismatch")
	}
}

func TestMapMatrixRoundTripNoFaults(t *testing.T) {
	// With continuous conductances and no faults, the effective weights
	// must reproduce the originals to float precision.
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		out := 1 + int(r.Uint64()%10)
		in := 1 + int(r.Uint64()%10)
		w := tensor.New(out, in)
		tensor.FillNormal(w, r, 0, 1)
		opts := MapOptions{TileRows: 4, TileCols: 4, Levels: 0, Gmin: 0.1, Gmax: 10}
		m := MapMatrix(w, opts)
		return m.EffectiveWeights().AllClose(w, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMapMatrixQuantizationError(t *testing.T) {
	r := tensor.NewRNG(2)
	w := tensor.New(8, 8)
	tensor.FillNormal(w, r, 0, 1)
	opts := DefaultMapOptions()
	opts.Levels = 16
	m := MapMatrix(w, opts)
	eff := m.EffectiveWeights()
	// Max quantization error per weight is one level step / gPerW / 2 —
	// and differential mapping means only one of the two cells is off
	// the rail.
	wmax := float64(w.MaxAbs())
	step := wmax / float64(opts.Levels-1)
	diff := tensor.Sub(eff, w)
	if float64(diff.MaxAbs()) > step/2+1e-9 {
		t.Fatalf("quantization error %v exceeds half step %v", diff.MaxAbs(), step/2)
	}
	// Quantization must actually change something at 16 levels.
	if eff.Equal(w) {
		t.Fatal("expected nonzero quantization error")
	}
}

func TestMapMatrixSA1DragsToWmax(t *testing.T) {
	w := tensor.Full(0.5, 2, 2)
	w.Set(1, 0, 0) // wmax = 1
	opts := MapOptions{TileRows: 4, TileCols: 4, Levels: 0, Gmin: 0.1, Gmax: 10}
	m := MapMatrix(w, opts)
	pos, _ := m.Tiles(0, 0)
	pos.SetFault(1, 1, FaultSA1) // cell for weight (out=1,in=1), positive array
	eff := m.EffectiveWeights()
	// G+ pinned to Gmax; weight 0.5 had G+ = Gmin+0.5·gPerW, G− = Gmin.
	// Effective w = (Gmax − Gmin)/gPerW = wmax = 1.
	if math.Abs(float64(eff.At(1, 1))-1) > 1e-6 {
		t.Fatalf("SA1 on positive cell should drag weight to +wmax, got %v", eff.At(1, 1))
	}
}

func TestMapMatrixSA0NegativeCellZeroesNegativeWeight(t *testing.T) {
	w := tensor.Full(-0.5, 1, 1)
	opts := MapOptions{TileRows: 2, TileCols: 2, Levels: 0, Gmin: 0.1, Gmax: 10}
	m := MapMatrix(w, opts)
	_, neg := m.Tiles(0, 0)
	neg.SetFault(0, 0, FaultSA0) // negative cell stuck at Gmin
	eff := m.EffectiveWeights()
	if math.Abs(float64(eff.At(0, 0))) > 1e-6 {
		t.Fatalf("SA0 on the active negative cell should zero the weight, got %v", eff.At(0, 0))
	}
}

func TestReprogramKeepsFaults(t *testing.T) {
	r := tensor.NewRNG(4)
	w := tensor.New(4, 4)
	tensor.FillNormal(w, r, 0, 1)
	m := MapMatrix(w, MapOptions{TileRows: 4, TileCols: 4, Levels: 0, Gmin: 0.1, Gmax: 10})
	m.InjectFaults(r.Stream("f"), fault.ChenModel(), 0.2)
	nf := m.NumFaults()
	if nf == 0 {
		t.Skip("no faults drawn at this seed")
	}
	w2 := tensor.New(4, 4)
	tensor.FillNormal(w2, r, 0, 2)
	m.Reprogram(w2)
	if m.NumFaults() != nf {
		t.Fatal("Reprogram must preserve fault state")
	}
}

func TestMarchTestFindsExactlyTheFaults(t *testing.T) {
	rng := tensor.NewRNG(5)
	x := NewCrossbar(10, 10, 0, 0.1, 10)
	x.SetFault(2, 3, FaultSA0)
	x.SetFault(7, 1, FaultSA1)
	found := MarchTest(x, 1, rng)
	if len(found) != 2 {
		t.Fatalf("found %d faults, want 2: %+v", len(found), found)
	}
	byPos := map[[2]int]CellFault{}
	for _, f := range found {
		byPos[[2]int{f.Row, f.Col}] = f.Kind
	}
	if byPos[[2]int{2, 3}] != FaultSA0 || byPos[[2]int{7, 1}] != FaultSA1 {
		t.Fatalf("wrong classification: %+v", byPos)
	}
}

func TestMarchTestNonDestructive(t *testing.T) {
	rng := tensor.NewRNG(6)
	x := NewCrossbar(4, 4, 0, 0.1, 10)
	x.Program(1, 2, 3.7)
	MarchTest(x, 1, rng)
	if x.Target(1, 2) != 3.7 {
		t.Fatal("march test must restore programmed targets")
	}
}

func TestMarchTestCoverage(t *testing.T) {
	rng := tensor.NewRNG(7)
	x := NewCrossbar(100, 100, 0, 0.1, 10)
	x.InjectFaults(rng, fault.ChenModel(), 0.1)
	total := x.NumFaults()
	found := len(MarchTest(x, 0.5, rng.Stream("cov")))
	// Expect ≈ half detected; binomial 5σ bounds.
	mean := 0.5 * float64(total)
	sigma := math.Sqrt(float64(total) * 0.25)
	if math.Abs(float64(found)-mean) > 5*sigma {
		t.Fatalf("coverage 0.5 found %d of %d", found, total)
	}
}

func TestRepairColumnsHealsDetectedColumns(t *testing.T) {
	rng := tensor.NewRNG(8)
	w := tensor.New(6, 6)
	tensor.FillNormal(w, rng, 0, 1)
	m := MapMatrix(w, MapOptions{TileRows: 8, TileCols: 8, Levels: 0, Gmin: 0.1, Gmax: 10})
	pos, _ := m.Tiles(0, 0)
	pos.SetFault(0, 2, FaultSA1)
	pos.SetFault(3, 2, FaultSA0) // two faults, same column
	pos.SetFault(1, 4, FaultSA1)
	det := MarchTestMatrix(m, 1, rng)
	rep := RepairColumns(m, det, 4, 0, rng) // perfect spares
	if rep.FaultyColumns != 2 || rep.RepairedColumns != 2 {
		t.Fatalf("report %+v", rep)
	}
	if m.NumFaults() != 0 {
		t.Fatalf("faults remain after repair: %d", m.NumFaults())
	}
}

func TestRepairColumnsSparesExhaust(t *testing.T) {
	rng := tensor.NewRNG(9)
	w := tensor.New(6, 6)
	tensor.FillNormal(w, rng, 0, 1)
	m := MapMatrix(w, MapOptions{TileRows: 8, TileCols: 8, Levels: 0, Gmin: 0.1, Gmax: 10})
	pos, _ := m.Tiles(0, 0)
	for c := 0; c < 5; c++ {
		pos.SetFault(0, c, FaultSA1)
	}
	det := MarchTestMatrix(m, 1, rng)
	rep := RepairColumns(m, det, 2, 0, rng)
	if rep.RepairedColumns != 2 {
		t.Fatalf("expected 2 repairs with 2 spares, got %+v", rep)
	}
	if m.NumFaults() != 3 {
		t.Fatalf("expected 3 faults left, got %d", m.NumFaults())
	}
}

func TestMapNetworkEffectiveWeightsRoundTrip(t *testing.T) {
	r := tensor.NewRNG(10)
	net := nn.NewNetwork(
		nn.NewConv2D("c", 1, 2, 3, 3, 1, 1, false, r),
		nn.NewBatchNorm2D("bn", 2),
		nn.NewReLU(),
		nn.NewGlobalAvgPool2D(),
		nn.NewLinear("fc", 2, 3, r),
	)
	x := tensor.New(2, 1, 6, 6)
	tensor.FillNormal(x, r, 0, 1)
	clean := net.Forward(x, false).Clone()

	mn := MapNetwork(net, MapOptions{TileRows: 16, TileCols: 16, Levels: 0, Gmin: 0.1, Gmax: 10})
	if mn.NumCells() != 2*(2*9+3*2) {
		t.Fatalf("NumCells=%d", mn.NumCells())
	}
	undo := mn.ApplyEffectiveWeights()
	faithful := net.Forward(x, false)
	if !faithful.AllClose(clean, 1e-3) {
		t.Fatal("fault-free analog deployment should match digital inference")
	}
	undo()

	// Now with faults the outputs must change.
	mn.InjectFaults(r.Stream("f"), fault.ChenModel(), 0.3)
	undo2 := mn.ApplyEffectiveWeights()
	faulty := net.Forward(x, false)
	if faulty.AllClose(clean, 1e-6) {
		t.Fatal("30% faults should perturb the outputs")
	}
	undo2()
	restored := net.Forward(x, false)
	if !restored.AllClose(clean, 1e-6) {
		t.Fatal("undo must restore digital weights exactly")
	}
}

// TestReprogramTracksNewWeights: Reprogram re-derives the conductance
// scale from the new weights, so a fault-free array reads them back,
// however much larger they are than the ones first mapped.
func TestReprogramTracksNewWeights(t *testing.T) {
	r := tensor.NewRNG(5)
	w := tensor.New(5, 6)
	tensor.FillNormal(w, r, 0, 0.1)
	m := MapMatrix(w, MapOptions{TileRows: 4, TileCols: 4, Levels: 0, Gmin: 0.1, Gmax: 10})
	w2 := tensor.New(5, 6)
	tensor.FillNormal(w2, r, 0, 3)
	m.Reprogram(w2)
	if m.Wmax != float64(w2.MaxAbs()) {
		t.Fatalf("Wmax=%v after Reprogram, want the new weights' %v", m.Wmax, w2.MaxAbs())
	}
	if !m.EffectiveWeights().AllClose(w2, 1e-4) {
		t.Fatal("fault-free array does not read back the reprogrammed weights")
	}
}

// TestInjectFaultsReachesEveryArray: the matrix draws faults over both
// differential arrays of every tile, edge tiles included, and counts
// them all; at rate 1 with SA0 only, every cell sits at Gmin and every
// weight reads zero.
func TestInjectFaultsReachesEveryArray(t *testing.T) {
	r := tensor.NewRNG(6)
	w := tensor.New(10, 10)
	tensor.FillNormal(w, r, 0, 1)
	m := MapMatrix(w, MapOptions{TileRows: 4, TileCols: 4, Levels: 0, Gmin: 0.1, Gmax: 10})
	n := m.InjectFaults(r.Stream("f"), fault.ChenModel(), 0.9)
	rts, cts := m.TileGrid()
	sum := 0
	for rt := 0; rt < rts; rt++ {
		for ct := 0; ct < cts; ct++ {
			pos, neg := m.Tiles(rt, ct)
			if pos.NumFaults() == 0 || neg.NumFaults() == 0 {
				t.Fatalf("tile (%d,%d) drew no fault in one of its arrays at rate 0.9", rt, ct)
			}
			sum += pos.NumFaults() + neg.NumFaults()
		}
	}
	if n != sum || m.NumFaults() != sum {
		t.Fatalf("InjectFaults returned %d, NumFaults %d, tiles hold %d", n, m.NumFaults(), sum)
	}

	m.ClearFaults()
	if n := m.InjectFaults(r.Stream("all"), fault.NewModel(1, 0), 1); n != m.NumCells() {
		t.Fatalf("rate 1 injected %d faults into %d cells", n, m.NumCells())
	}
	if eff := m.EffectiveWeights(); eff.MaxAbs() != 0 {
		t.Fatalf("every cell stuck at Gmin, yet a weight reads %v", eff.MaxAbs())
	}
}

// TestMappedNetworkFaultCountsAndClear: the deployment counts the
// faults of all its matrices, and ClearFaults heals every one of them,
// so the effective weights are the fault-free ones again, bit for bit.
func TestMappedNetworkFaultCountsAndClear(t *testing.T) {
	r := tensor.NewRNG(11)
	net := nn.NewNetwork(
		nn.NewLinear("fc1", 6, 5, r),
		nn.NewReLU(),
		nn.NewLinear("fc2", 5, 3, r),
	)
	mn := MapNetwork(net, MapOptions{TileRows: 4, TileCols: 4, Levels: 16, Gmin: 0.1, Gmax: 10})
	if len(mn.Mats) != 2 {
		t.Fatalf("mapped %d matrices, want the 2 weight matrices", len(mn.Mats))
	}
	var healthy []*tensor.Tensor
	for _, m := range mn.Mats {
		healthy = append(healthy, m.EffectiveWeights())
	}
	n := mn.InjectFaults(r.Stream("f"), fault.ChenModel(), 0.3)
	if n == 0 || mn.NumFaults() != n || mn.NumFaults() != mn.Mats[0].NumFaults()+mn.Mats[1].NumFaults() {
		t.Fatalf("injected %d, NumFaults %d, matrices %d+%d", n, mn.NumFaults(), mn.Mats[0].NumFaults(), mn.Mats[1].NumFaults())
	}
	mn.ClearFaults()
	if mn.NumFaults() != 0 {
		t.Fatalf("%d faults left after ClearFaults", mn.NumFaults())
	}
	for i, m := range mn.Mats {
		if !m.EffectiveWeights().Equal(healthy[i]) {
			t.Fatalf("matrix %d does not read its fault-free weights after ClearFaults", i)
		}
	}
}
