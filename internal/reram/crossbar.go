// Package reram simulates ReRAM crossbar arrays at the circuit level:
// conductance programming with multi-level quantization, differential
// weight mapping with tiling, per-cell stuck-at fault maps read back as
// the effective weights the arrays implement, march-test fault
// detection and redundant-column repair.
//
// The paper evaluates with the faster weight-level model in
// internal/fault; this package provides the substrate that model
// abstracts, the device-specific repair baselines the paper compares
// against ([4], [5], [25]), and the ablation that validates the
// weight-level simplification.
package reram

import (
	"fmt"
	"math"

	"github.com/ftpim/ftpim/internal/fault"
	"github.com/ftpim/ftpim/internal/tensor"
)

// CellFault is the physical state of one crossbar cell.
type CellFault uint8

// Cell fault states.
const (
	FaultNone CellFault = iota
	FaultSA0            // stuck at Gmin
	FaultSA1            // stuck at Gmax
)

// Crossbar is one R×C array of programmable conductances. Programmed
// targets are stored separately from fault state so that re-programming
// (e.g. after retraining) does not lose the defect pattern.
//
// Targets are addressed by *logical* column; stuck-at faults live on
// *physical* columns. The two coincide unless a column permutation has
// been installed by SetColPerm (the remapping baseline [3]), which
// re-routes each logical column onto a chosen physical column.
type Crossbar struct {
	Rows, Cols int
	Gmin, Gmax float64
	Levels     int // discrete conductance levels; 0 disables quantization

	g       []float64 // programmed target conductances, row-major, logical
	faults  []CellFault
	colPerm []int // logical→physical column map; nil = identity
}

// NewCrossbar allocates a crossbar with all cells at Gmin and no
// faults.
func NewCrossbar(rows, cols, levels int, gmin, gmax float64) *Crossbar {
	if rows <= 0 || cols <= 0 || gmax <= gmin {
		panic(fmt.Sprintf("reram: invalid crossbar %dx%d G=[%g,%g]", rows, cols, gmin, gmax))
	}
	x := &Crossbar{
		Rows: rows, Cols: cols, Gmin: gmin, Gmax: gmax, Levels: levels,
		g:      make([]float64, rows*cols),
		faults: make([]CellFault, rows*cols),
	}
	for i := range x.g {
		x.g[i] = gmin
	}
	return x
}

// Quantize snaps a conductance to the crossbar's level grid and clamps
// it to [Gmin, Gmax]. The product is converted before the add, so no
// compiler fuses the two into one rounding.
func (x *Crossbar) Quantize(g float64) float64 {
	if g < x.Gmin {
		g = x.Gmin
	}
	if g > x.Gmax {
		g = x.Gmax
	}
	if x.Levels < 2 {
		return g
	}
	step := (x.Gmax - x.Gmin) / float64(x.Levels-1)
	return x.Gmin + float64(math.Round((g-x.Gmin)/step)*step)
}

// Program writes a target conductance into cell (r, c), quantized to
// the level grid. The write succeeds logically even on a faulty cell;
// the fault only manifests on read.
func (x *Crossbar) Program(r, c int, g float64) {
	x.g[r*x.Cols+c] = x.Quantize(g)
}

// Target returns the programmed (pre-fault) conductance of cell (r, c).
func (x *Crossbar) Target(r, c int) float64 { return x.g[r*x.Cols+c] }

// phys maps a logical column to its physical column.
func (x *Crossbar) phys(c int) int {
	if x.colPerm == nil {
		return c
	}
	return x.colPerm[c]
}

// SetColPerm installs a logical→physical column permutation (the
// output-routing trick of the remapping baseline [3]). perm must be a
// permutation of [0, Cols); nil restores the identity.
func (x *Crossbar) SetColPerm(perm []int) {
	if perm == nil {
		x.colPerm = nil
		return
	}
	if len(perm) != x.Cols {
		panic(fmt.Sprintf("reram: permutation length %d, want %d", len(perm), x.Cols))
	}
	seen := make([]bool, x.Cols)
	for _, p := range perm {
		if p < 0 || p >= x.Cols || seen[p] {
			panic("reram: not a permutation")
		}
		seen[p] = true
	}
	x.colPerm = append([]int(nil), perm...)
}

// ColPerm returns the installed permutation (nil = identity).
func (x *Crossbar) ColPerm() []int { return x.colPerm }

// Effective returns the conductance logical cell (r, c) actually
// presents: the programmed target unless the routed physical cell is
// stuck.
func (x *Crossbar) Effective(r, c int) float64 {
	switch x.faults[r*x.Cols+x.phys(c)] {
	case FaultSA0:
		return x.Gmin
	case FaultSA1:
		return x.Gmax
	default:
		return x.g[r*x.Cols+c]
	}
}

// SetFault pins the fault state of cell (r, c).
func (x *Crossbar) SetFault(r, c int, f CellFault) { x.faults[r*x.Cols+c] = f }

// ClearFaults resets every cell to healthy.
func (x *Crossbar) ClearFaults() {
	for i := range x.faults {
		x.faults[i] = FaultNone
	}
}

// InjectFaults draws independent per-cell stuck-at faults with total
// rate psa, split SA0/SA1 by the model, and returns the number injected.
func (x *Crossbar) InjectFaults(rng *tensor.RNG, m fault.Model, psa float64) int {
	if psa < 0 || psa > 1 {
		panic(fmt.Sprintf("reram: psa %v out of [0,1]", psa))
	}
	p1 := m.P1()
	n := 0
	for i := range x.faults {
		if rng.Float64() >= psa {
			continue
		}
		if rng.Float64() < p1 {
			x.faults[i] = FaultSA1
		} else {
			x.faults[i] = FaultSA0
		}
		n++
	}
	return n
}

// NumFaults counts faulty cells.
func (x *Crossbar) NumFaults() int {
	n := 0
	for _, f := range x.faults {
		if f != FaultNone {
			n++
		}
	}
	return n
}
