package reram

import (
	"github.com/ftpim/ftpim/internal/fault"
	"github.com/ftpim/ftpim/internal/nn"
	"github.com/ftpim/ftpim/internal/tensor"
)

// MappedNetwork holds one MappedMatrix per weight parameter of a
// network — the full model programmed onto crossbars. Conv weights are
// already stored flat as (outC, inC·kh·kw), so every weight param maps
// directly.
type MappedNetwork struct {
	Net    *nn.Network
	Params []*nn.Param
	Mats   []*MappedMatrix
	Opts   MapOptions
}

// MapNetwork programs every weight (Decay) parameter of net onto
// crossbar tiles.
func MapNetwork(net *nn.Network, opts MapOptions) *MappedNetwork {
	mn := &MappedNetwork{Net: net, Opts: opts}
	for _, p := range net.WeightParams() {
		mn.Params = append(mn.Params, p)
		mn.Mats = append(mn.Mats, MapMatrix(p.W, opts))
	}
	return mn
}

// InjectFaults draws stuck-at faults across all mapped arrays.
func (mn *MappedNetwork) InjectFaults(rng *tensor.RNG, fm fault.Model, psa float64) int {
	n := 0
	for _, m := range mn.Mats {
		n += m.InjectFaults(rng, fm, psa)
	}
	return n
}

// ClearFaults heals every array.
func (mn *MappedNetwork) ClearFaults() {
	for _, m := range mn.Mats {
		m.ClearFaults()
	}
}

// ApplyEffectiveWeights overwrites the network's weight params with the
// effective (quantized + faulted) weights the crossbars implement and
// returns an undo function restoring the digital weights. Running
// inference between the two calls evaluates the model with the weights
// the programmed, faulted arrays implement.
func (mn *MappedNetwork) ApplyEffectiveWeights() (undo func()) {
	saved := make([]*tensor.Tensor, len(mn.Params))
	for i, p := range mn.Params {
		saved[i] = p.W.Clone()
		eff := mn.Mats[i].EffectiveWeights()
		p.W.CopyFrom(eff.Reshape(p.W.Shape()...))
	}
	return func() {
		for i, p := range mn.Params {
			p.W.CopyFrom(saved[i])
		}
	}
}

// NumFaults counts faulty cells across the whole deployment.
func (mn *MappedNetwork) NumFaults() int {
	n := 0
	for _, m := range mn.Mats {
		n += m.NumFaults()
	}
	return n
}

// NumCells returns the total physical cell count of the deployment.
func (mn *MappedNetwork) NumCells() int {
	n := 0
	for _, m := range mn.Mats {
		n += m.NumCells()
	}
	return n
}
