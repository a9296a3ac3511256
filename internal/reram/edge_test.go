package reram

import (
	"testing"

	"github.com/ftpim/ftpim/internal/fault"
	"github.com/ftpim/ftpim/internal/tensor"
)

func TestNewCrossbarBadConfigPanics(t *testing.T) {
	cases := []struct {
		r, c       int
		gmin, gmax float64
	}{
		{0, 4, 0.1, 10},
		{4, 0, 0.1, 10},
		{4, 4, 10, 0.1},
		{4, 4, 5, 5},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for %+v", tc)
				}
			}()
			NewCrossbar(tc.r, tc.c, 0, tc.gmin, tc.gmax)
		}()
	}
}

func TestCrossbarInjectBadRatePanics(t *testing.T) {
	x := NewCrossbar(2, 2, 0, 0.1, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	x.InjectFaults(tensor.NewRNG(1), fault.ChenModel(), 1.5)
}

func TestMapMatrixRankPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for rank-1 weights")
		}
	}()
	MapMatrix(tensor.New(4), DefaultMapOptions())
}

func TestMapMatrixZeroTilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero tile dims")
		}
	}()
	MapMatrix(tensor.New(2, 2), MapOptions{TileRows: 0, TileCols: 4, Gmin: 0.1, Gmax: 10})
}

func TestMapMatrixAllZeroWeights(t *testing.T) {
	// An all-zero matrix must map (wmax falls back to 1) and read back
	// as zeros.
	m := MapMatrix(tensor.New(3, 3), MapOptions{TileRows: 4, TileCols: 4, Levels: 0, Gmin: 0.1, Gmax: 10})
	eff := m.EffectiveWeights()
	if eff.MaxAbs() != 0 {
		t.Fatalf("zero matrix should read back zero, got %v", eff.MaxAbs())
	}
}

func TestMapMatrixTilingCoversOddShapes(t *testing.T) {
	// 5×7 with 3×2 tiles: ragged edges on both axes.
	r := tensor.NewRNG(1)
	w := tensor.New(5, 7)
	tensor.FillNormal(w, r, 0, 1)
	m := MapMatrix(w, MapOptions{TileRows: 3, TileCols: 2, Levels: 0, Gmin: 0.1, Gmax: 10})
	rt, ct := m.TileGrid()
	if rt != 3 || ct != 3 { // in=7→3 row tiles, out=5→3 col tiles
		t.Fatalf("tile grid %d×%d", rt, ct)
	}
	if !m.EffectiveWeights().AllClose(w, 1e-4) {
		t.Fatal("ragged tiling broke the round trip")
	}
	// Each weight lives on the cells its tile offsets name, edge tiles
	// included: its positive cell stuck at Gmax moves exactly that
	// weight, to Wmax less its negative cell's share.
	for i := 0; i < 7; i++ {
		for o := 0; o < 5; o++ {
			pos, _ := m.Tiles(i/3, o/2)
			if pos.Rows != min(3, 7-i/3*3) || pos.Cols != min(2, 5-o/2*2) {
				t.Fatalf("tile (%d,%d) is %d×%d", i/3, o/2, pos.Rows, pos.Cols)
			}
			pos.SetFault(i%3, o%2, FaultSA1)
			eff := m.EffectiveWeights()
			for ii := 0; ii < 7; ii++ {
				for oo := 0; oo < 5; oo++ {
					want := float64(w.At(oo, ii))
					if ii == i && oo == o {
						want = m.Wmax + min(want, 0)
					}
					if d := float64(eff.At(oo, ii)) - want; d > 1e-4 || d < -1e-4 {
						t.Fatalf("fault on weight (%d,%d): weight (%d,%d) reads %v, want %v", o, i, oo, ii, eff.At(oo, ii), want)
					}
				}
			}
			m.ClearFaults()
		}
	}
}

func TestMarchTestBadCoveragePanics(t *testing.T) {
	x := NewCrossbar(2, 2, 0, 0.1, 10)
	for _, bad := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for coverage %v", bad)
				}
			}()
			MarchTest(x, bad, tensor.NewRNG(1))
		}()
	}
}

func TestQuantizeMonotone(t *testing.T) {
	x := NewCrossbar(1, 1, 8, 0, 1)
	prev := -1.0
	for g := 0.0; g <= 1.0; g += 0.01 {
		q := x.Quantize(g)
		if q < prev {
			t.Fatalf("quantization not monotone at %v", g)
		}
		prev = q
	}
}

func TestReprogramShapeMismatchPanics(t *testing.T) {
	m := MapMatrix(tensor.New(3, 4), DefaultMapOptions())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for transposed weights")
		}
	}()
	m.Reprogram(tensor.New(4, 3))
}
