package reram

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/ftpim/ftpim/internal/fault"
	"github.com/ftpim/ftpim/internal/tensor"
)

func TestSetColPermValidation(t *testing.T) {
	x := NewCrossbar(2, 3, 0, 0.1, 10)
	for _, bad := range [][]int{{0, 1}, {0, 1, 1}, {0, 1, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for perm %v", bad)
				}
			}()
			x.SetColPerm(bad)
		}()
	}
	x.SetColPerm([]int{2, 0, 1})
	if x.ColPerm()[0] != 2 {
		t.Fatal("perm not installed")
	}
	x.SetColPerm(nil)
	if x.ColPerm() != nil {
		t.Fatal("perm not cleared")
	}
}

func TestColPermRoutesFaults(t *testing.T) {
	x := NewCrossbar(1, 2, 0, 0, 10)
	x.Program(0, 0, 7)
	x.Program(0, 1, 3)
	x.SetFault(0, 0, FaultSA1) // physical column 0 is stuck at Gmax=10
	// Identity: logical 0 reads stuck, logical 1 healthy.
	if x.Effective(0, 0) != 10 || x.Effective(0, 1) != 3 {
		t.Fatalf("identity routing wrong: %v %v", x.Effective(0, 0), x.Effective(0, 1))
	}
	// Swap: logical 0 now uses healthy physical 1, keeps target 7.
	x.SetColPerm([]int{1, 0})
	if x.Effective(0, 0) != 7 {
		t.Fatalf("remapped logical 0 should read its target 7, got %v", x.Effective(0, 0))
	}
	if x.Effective(0, 1) != 10 {
		t.Fatalf("remapped logical 1 should hit the stuck cell, got %v", x.Effective(0, 1))
	}
}

func TestRemapColumnsMovesStuckColumnToSmallTarget(t *testing.T) {
	// Logical column 0 wants high conductances but its physical column
	// is stuck off; logical column 1 wants Gmin everywhere. Remapping
	// should route column 0 onto the healthy column and column 1 onto
	// the stuck-off one (which matches its targets perfectly).
	w := tensor.New(2, 2) // out=2, in=2
	w.Set(1, 0, 0)
	w.Set(1, 0, 1) // output 0: large positive weights
	// output 1: zeros
	m := MapMatrix(w, MapOptions{TileRows: 4, TileCols: 4, Levels: 0, Gmin: 0.1, Gmax: 10})
	pos, _ := m.Tiles(0, 0)
	pos.SetFault(0, 0, FaultSA0)
	pos.SetFault(1, 0, FaultSA0)

	before := m.EffectiveWeights()
	if math.Abs(float64(before.At(0, 0))) > 0.2 {
		t.Fatalf("setup broken: weight should be crushed, got %v", before.At(0, 0))
	}
	rep := RemapColumns(m)
	if rep.TilesRemapped == 0 || rep.CostAfter >= rep.CostBefore {
		t.Fatalf("remap should help: %+v", rep)
	}
	after := m.EffectiveWeights()
	if math.Abs(float64(after.At(0, 0))-1) > 1e-6 || math.Abs(float64(after.At(0, 1))-1) > 1e-6 {
		t.Fatalf("output 0 should be fully restored, got %v %v", after.At(0, 0), after.At(0, 1))
	}
	if math.Abs(float64(after.At(1, 0))) > 1e-6 {
		t.Fatalf("output 1 (zeros) should still read zero, got %v", after.At(1, 0))
	}
}

func TestRemapNeverIncreasesCost(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		out := 2 + int(r.Uint64()%10)
		in := 2 + int(r.Uint64()%10)
		w := tensor.New(out, in)
		tensor.FillNormal(w, r, 0, 1)
		m := MapMatrix(w, MapOptions{TileRows: 6, TileCols: 6, Levels: 0, Gmin: 0.1, Gmax: 10})
		m.InjectFaults(r.Stream("f"), fault.ChenModel(), 0.1)
		rep := RemapColumns(m)
		return rep.CostAfter <= rep.CostBefore+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRemapNoFaultsNoChange(t *testing.T) {
	r := tensor.NewRNG(1)
	w := tensor.New(4, 4)
	tensor.FillNormal(w, r, 0, 1)
	m := MapMatrix(w, MapOptions{TileRows: 4, TileCols: 4, Levels: 0, Gmin: 0.1, Gmax: 10})
	rep := RemapColumns(m)
	if rep.TilesRemapped != 0 || rep.CostBefore != 0 {
		t.Fatalf("healthy chip should not be touched: %+v", rep)
	}
}
