package reram

import (
	"fmt"

	"github.com/ftpim/ftpim/internal/fault"
	"github.com/ftpim/ftpim/internal/tensor"
)

// MapOptions configures how a weight matrix is laid out on crossbars.
type MapOptions struct {
	TileRows int     // crossbar rows (inputs per tile)
	TileCols int     // crossbar columns (outputs per tile)
	Levels   int     // conductance levels per cell (0 = analog/continuous)
	Gmin     float64 // minimum cell conductance
	Gmax     float64 // maximum cell conductance
}

// DefaultMapOptions mirrors a typical ISAAC-style 128×128 array with
// 4-bit cells.
func DefaultMapOptions() MapOptions {
	return MapOptions{TileRows: 128, TileCols: 128, Levels: 16, Gmin: 0.1, Gmax: 10}
}

// MappedMatrix is a weight matrix W (out×in) programmed onto tiled
// differential crossbar pairs: each weight is the scaled difference of
// a positive-array and a negative-array cell,
//
//	w_ij = (G⁺_ij − G⁻_ij) / gPerW,  gPerW = (Gmax−Gmin)/wmax.
//
// Rows of each crossbar carry inputs, columns carry outputs.
type MappedMatrix struct {
	OutDim, InDim int
	Opts          MapOptions
	Wmax          float64
	gPerW         float64

	// pos/neg[rt][ct] cover input rows [rt·TR, …) × output cols [ct·TC, …).
	pos, neg [][]*Crossbar
	rowTiles int
	colTiles int
}

// MapMatrix programs w (out×in) onto differential crossbar tiles.
func MapMatrix(w *tensor.Tensor, opts MapOptions) *MappedMatrix {
	if w.Rank() != 2 {
		panic(fmt.Sprintf("reram: MapMatrix wants rank-2 weights, got %v", w.Shape()))
	}
	if opts.TileRows <= 0 || opts.TileCols <= 0 {
		panic("reram: tile dims must be positive")
	}
	out, in := w.Dim(0), w.Dim(1)
	wmax := float64(w.MaxAbs())
	if wmax == 0 {
		wmax = 1 // all-zero matrix still maps (to Gmin everywhere)
	}
	m := &MappedMatrix{
		OutDim: out, InDim: in, Opts: opts,
		Wmax:     wmax,
		gPerW:    (opts.Gmax - opts.Gmin) / wmax,
		rowTiles: (in + opts.TileRows - 1) / opts.TileRows,
		colTiles: (out + opts.TileCols - 1) / opts.TileCols,
	}
	for rt := 0; rt < m.rowTiles; rt++ {
		var prow, nrow []*Crossbar
		rows := minInt(opts.TileRows, in-rt*opts.TileRows)
		for ct := 0; ct < m.colTiles; ct++ {
			cols := minInt(opts.TileCols, out-ct*opts.TileCols)
			prow = append(prow, NewCrossbar(rows, cols, opts.Levels, opts.Gmin, opts.Gmax))
			nrow = append(nrow, NewCrossbar(rows, cols, opts.Levels, opts.Gmin, opts.Gmax))
		}
		m.pos = append(m.pos, prow)
		m.neg = append(m.neg, nrow)
	}
	m.Reprogram(w)
	return m
}

// Reprogram rewrites the crossbar targets from a (possibly updated)
// weight matrix of the original shape, keeping all fault state. The
// conductance scale is re-derived from the new weights. Each product
// is converted before the add, so no compiler fuses the two into one
// rounding.
func (m *MappedMatrix) Reprogram(w *tensor.Tensor) {
	if w.Dim(0) != m.OutDim || w.Dim(1) != m.InDim {
		panic(fmt.Sprintf("reram: Reprogram shape %v, want (%d,%d)", w.Shape(), m.OutDim, m.InDim))
	}
	wmax := float64(w.MaxAbs())
	if wmax == 0 {
		wmax = 1
	}
	m.Wmax = wmax
	m.gPerW = (m.Opts.Gmax - m.Opts.Gmin) / wmax
	for i := 0; i < m.InDim; i++ {
		rt, r := i/m.Opts.TileRows, i%m.Opts.TileRows
		for o := 0; o < m.OutDim; o++ {
			ct, c := o/m.Opts.TileCols, o%m.Opts.TileCols
			wv := float64(w.At(o, i))
			gp, gn := m.Opts.Gmin, m.Opts.Gmin
			if wv >= 0 {
				gp = m.Opts.Gmin + float64(wv*m.gPerW)
			} else {
				gn = m.Opts.Gmin - float64(wv*m.gPerW)
			}
			m.pos[rt][ct].Program(r, c, gp)
			m.neg[rt][ct].Program(r, c, gn)
		}
	}
}

// InjectFaults draws stuck-at faults over every cell of every tile
// (both differential arrays) and returns the number injected.
func (m *MappedMatrix) InjectFaults(rng *tensor.RNG, fm fault.Model, psa float64) int {
	n := 0
	for rt := range m.pos {
		for ct := range m.pos[rt] {
			n += m.pos[rt][ct].InjectFaults(rng, fm, psa)
			n += m.neg[rt][ct].InjectFaults(rng, fm, psa)
		}
	}
	return n
}

// ClearFaults heals every cell.
func (m *MappedMatrix) ClearFaults() {
	for rt := range m.pos {
		for ct := range m.pos[rt] {
			m.pos[rt][ct].ClearFaults()
			m.neg[rt][ct].ClearFaults()
		}
	}
}

// NumCells returns the total physical cell count (2 per weight).
func (m *MappedMatrix) NumCells() int { return 2 * m.OutDim * m.InDim }

// NumFaults counts faulty cells across all tiles.
func (m *MappedMatrix) NumFaults() int {
	n := 0
	for rt := range m.pos {
		for ct := range m.pos[rt] {
			n += m.pos[rt][ct].NumFaults() + m.neg[rt][ct].NumFaults()
		}
	}
	return n
}

// Tiles returns the differential crossbar pair covering tile (rt, ct).
func (m *MappedMatrix) Tiles(rt, ct int) (pos, neg *Crossbar) {
	return m.pos[rt][ct], m.neg[rt][ct]
}

// TileGrid returns the number of row and column tiles.
func (m *MappedMatrix) TileGrid() (rowTiles, colTiles int) { return m.rowTiles, m.colTiles }

// EffectiveWeights reconstructs the weight matrix the analog array
// actually implements — quantization and stuck-at faults included.
func (m *MappedMatrix) EffectiveWeights() *tensor.Tensor {
	w := tensor.New(m.OutDim, m.InDim)
	for i := 0; i < m.InDim; i++ {
		rt, r := i/m.Opts.TileRows, i%m.Opts.TileRows
		for o := 0; o < m.OutDim; o++ {
			ct, c := o/m.Opts.TileCols, o%m.Opts.TileCols
			gp := m.pos[rt][ct].Effective(r, c)
			gn := m.neg[rt][ct].Effective(r, c)
			w.Set(float32((gp-gn)/m.gPerW), o, i)
		}
	}
	return w
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
