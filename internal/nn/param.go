// Package nn implements the neural-network layers and losses used to
// train the fault-tolerant models: im2col-backed 2-D convolution,
// batch normalization, ReLU, pooling, linear layers, CIFAR-style
// residual basic blocks and a softmax cross-entropy loss, all with
// hand-written backward passes.
//
// Layers follow a simple define-by-run contract: Forward caches what
// Backward needs; Backward consumes the output gradient and returns the
// input gradient while accumulating parameter gradients into each
// Param.Grad.
package nn

import (
	"fmt"

	"github.com/ftpim/ftpim/internal/tensor"
)

// Param is one learnable tensor together with its gradient and an
// optional pruning mask.
//
// When Mask is non-nil it has the same shape as W with entries in
// {0,1}; pruned positions (mask 0) are kept at zero by the optimizer.
// Fault injection deliberately ignores the mask: a pruned weight still
// occupies ReRAM cells, and a stuck-on cell drags it to ±wmax — which
// is exactly why pruned models are more fragile (paper §IV-C).
type Param struct {
	Name  string
	W     *tensor.Tensor
	Grad  *tensor.Tensor
	Mask  *tensor.Tensor
	Decay bool // whether weight decay applies (convention: not for BN/bias)
}

// NewParam allocates a parameter and its gradient buffer.
func NewParam(name string, shape ...int) *Param {
	return &Param{
		Name:  name,
		W:     tensor.New(shape...),
		Grad:  tensor.New(shape...),
		Decay: true,
	}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// ApplyMask zeroes pruned weight entries (no-op when Mask is nil).
func (p *Param) ApplyMask() {
	if p.Mask == nil {
		return
	}
	p.W.MulInPlace(p.Mask)
}

// Sparsity returns the fraction of weights pinned to zero by the mask
// (0 when unmasked).
func (p *Param) Sparsity() float64 {
	if p.Mask == nil {
		return 0
	}
	zeros := 0
	for _, v := range p.Mask.Data() {
		if v == 0 {
			zeros++
		}
	}
	return float64(zeros) / float64(p.Mask.Len())
}

func (p *Param) String() string {
	return fmt.Sprintf("Param(%s %v)", p.Name, p.W.Shape())
}

// Layer is the interface every network building block implements.
type Layer interface {
	// Forward runs the layer. train selects training behaviour
	// (batch statistics, caching for backward).
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward consumes dOut and returns dIn, accumulating parameter
	// gradients. Must be called after a Forward with train=true.
	Backward(dOut *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's learnable parameters (possibly empty).
	Params() []*Param
	// CloneLayer returns a deep copy of the layer: parameters, masks
	// and inference state (e.g. batch-norm running statistics) are
	// copied; transient forward/backward caches are not. Clones share
	// no mutable state with the original, so they may be used
	// concurrently from different goroutines.
	CloneLayer() Layer
}

// Sequential chains layers.
type Sequential struct {
	Layers []Layer
	planes planePool // the inference trunk's planes (trunk.go)
}

// NewSequential builds a Sequential from the given layers.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Forward applies every layer in order. At inference a bias-free
// Conv2D followed by a BatchNorm2D of its channels and a ReLU (the
// ResNet stem) runs as one fused conv (Conv2D.fusedForward), with the
// bits of the three layers, and the fused convs and the blocks hand
// their activations to each other in zero-bordered planes (infer).
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train {
		return s.infer(x)
	}
	for _, l := range s.Layers {
		x = l.Forward(x, true)
	}
	return x
}

// Backward applies every layer's backward pass in reverse order.
func (s *Sequential) Backward(dOut *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		dOut = s.Layers[i].Backward(dOut)
	}
	return dOut
}

// Params collects parameters from all layers in order.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}
