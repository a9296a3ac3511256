package nn

import (
	"fmt"

	"github.com/ftpim/ftpim/internal/tensor"
)

// Network wraps a layer stack with the bookkeeping a training loop
// needs: parameter access, gradient clearing, and full state snapshots
// including batch-norm running statistics and pruning masks.
type Network struct {
	Body *Sequential

	// params caches the flattened parameter list. Layer topology is
	// fixed after construction, and Restore mutates parameter tensors in
	// place (pointer identity is stable), so the cache never goes stale.
	params []*Param
}

// NewNetwork wraps the given layers.
func NewNetwork(layers ...Layer) *Network {
	return &Network{Body: NewSequential(layers...)}
}

// Forward runs the network.
func (n *Network) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return n.Body.Forward(x, train)
}

// Backward back-propagates an output gradient.
func (n *Network) Backward(dOut *tensor.Tensor) *tensor.Tensor {
	return n.Body.Backward(dOut)
}

// Params returns all learnable parameters in a stable order. The list
// is computed once and cached; callers must not append to it.
func (n *Network) Params() []*Param {
	if n.params == nil {
		n.params = n.Body.Params()
	}
	return n.params
}

// WeightParams returns only the weight-decayed parameters — conv and
// linear weight matrices — which are the tensors mapped onto ReRAM
// crossbars and therefore the ones fault injection targets.
func (n *Network) WeightParams() []*Param {
	var ps []*Param
	for _, p := range n.Params() {
		if p.Decay {
			ps = append(ps, p)
		}
	}
	return ps
}

// ZeroGrad clears every parameter gradient.
func (n *Network) ZeroGrad() {
	for _, p := range n.Params() {
		p.ZeroGrad()
	}
}

// NumParams returns the total learnable element count.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += p.W.Len()
	}
	return total
}

// Sparsity returns the overall fraction of weight entries pruned to
// zero across the weight (Decay) parameters.
func (n *Network) Sparsity() float64 {
	total, zeros := 0, 0
	for _, p := range n.WeightParams() {
		total += p.W.Len()
		if p.Mask != nil {
			for _, v := range p.Mask.Data() {
				if v == 0 {
					zeros++
				}
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(zeros) / float64(total)
}

// BatchNorms walks the network and returns every BatchNorm2D in order.
func (n *Network) BatchNorms() []*BatchNorm2D {
	var bns []*BatchNorm2D
	var walk func(l Layer)
	walk = func(l Layer) {
		switch v := l.(type) {
		case *Sequential:
			for _, c := range v.Layers {
				walk(c)
			}
		case *BasicBlock:
			bns = append(bns, v.BN1, v.BN2)
		case *BatchNorm2D:
			bns = append(bns, v)
		}
	}
	walk(n.Body)
	return bns
}

// state lists the tensors a snapshot holds: each parameter followed by
// its pruning mask (nil when dense), then each batch norm's running
// mean and variance.
func (n *Network) state() []*tensor.Tensor {
	var list []*tensor.Tensor
	for _, p := range n.Params() {
		list = append(list, p.W, p.Mask)
	}
	for _, bn := range n.BatchNorms() {
		m, v := bn.Stats()
		list = append(list, m, v)
	}
	return list
}

// Snapshot returns the network's learnable state as one tensor list
// (tensor.AppendTensors). The architecture is not included; Restore
// must be called on a network of identical construction.
func (n *Network) Snapshot() []byte {
	return tensor.AppendTensors(nil, n.state()...)
}

// Restore loads state captured by Snapshot. Every tensor is decoded
// and checked against the network before any is copied, so a failed
// Restore leaves the network unchanged.
func (n *Network) Restore(state []byte) error {
	saved, err := tensor.DecodeTensors(state)
	if err != nil {
		return fmt.Errorf("nn: %w", err)
	}
	live := n.state()
	if len(saved) != len(live) {
		return fmt.Errorf("nn: state has %d tensors, network has %d", len(saved), len(live))
	}
	ps := n.Params()
	isMask := func(i int) bool { return i < 2*len(ps) && i%2 == 1 }
	for i, s := range saved {
		want := live[i]
		if isMask(i) {
			if s == nil {
				continue // dense parameter
			}
			want = live[i-1] // a mask has its parameter's shape
		}
		if s == nil {
			return fmt.Errorf("nn: saved tensor %d is absent, network expects shape %v", i, want.Shape())
		}
		if !want.SameShape(s) {
			return fmt.Errorf("nn: saved tensor %d has shape %v, network expects %v", i, s.Shape(), want.Shape())
		}
	}
	for i, s := range saved {
		if isMask(i) {
			ps[i/2].Mask = s
		} else {
			live[i].CopyFrom(s)
		}
	}
	return nil
}
