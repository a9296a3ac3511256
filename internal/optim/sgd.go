// Package optim provides the stochastic-gradient-descent optimizer and
// learning-rate schedules used by the training recipes in this library
// (SGD with momentum and weight decay, cosine and multi-step LR).
package optim

import (
	"fmt"
	"math"

	"github.com/ftpim/ftpim/internal/nn"
	"github.com/ftpim/ftpim/internal/tensor"
)

// SGD implements stochastic gradient descent with classical or Nesterov
// momentum and decoupled-from-schedule L2 weight decay (added to the
// gradient, PyTorch-style).
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64
	Nesterov    bool

	params   []*nn.Param
	velocity []*tensor.Tensor
}

// NewSGD creates an optimizer over the given parameters.
func NewSGD(params []*nn.Param, lr, momentum, weightDecay float64) *SGD {
	s := &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay, params: params}
	s.velocity = make([]*tensor.Tensor, len(params))
	for i, p := range params {
		s.velocity[i] = tensor.New(p.W.Shape()...)
	}
	return s
}

// Params returns the parameter set being optimized.
func (s *SGD) Params() []*nn.Param { return s.params }

// Step applies one update:
//
//	g ← grad + wd·w   (wd only on Decay params)
//	v ← μ·v + g
//	w ← w − lr·v      (or lr·(g + μ·v) with Nesterov)
//
// Pruning masks are re-applied after the update so pruned weights stay
// exactly zero.
func (s *SGD) Step() {
	lr := float32(s.LR)
	mu := float32(s.Momentum)
	for i, p := range s.params {
		w, g, v := p.W.Data(), p.Grad.Data(), s.velocity[i].Data()
		wd := float32(0)
		if p.Decay {
			wd = float32(s.WeightDecay)
		}
		if s.Nesterov {
			for j := range w {
				gj := g[j] + float32(wd*w[j])
				v[j] = float32(mu*v[j]) + gj
				w[j] -= float32(lr * (gj + float32(mu*v[j])))
			}
		} else {
			for j := range w {
				gj := g[j] + float32(wd*w[j])
				v[j] = float32(mu*v[j]) + gj
				w[j] -= float32(lr * v[j])
			}
		}
		p.ApplyMask()
	}
}

// ZeroGrad clears all parameter gradients.
func (s *SGD) ZeroGrad() {
	for _, p := range s.params {
		p.ZeroGrad()
	}
}

// ResetVelocity clears momentum buffers; used when a training phase
// restarts (e.g. between progressive fault-tolerant training stages).
func (s *SGD) ResetVelocity() {
	for _, v := range s.velocity {
		v.Zero()
	}
}

// ExportState returns a deep copy of the momentum buffers, in parameter
// order — the optimizer state a training checkpoint must carry for a
// resumed run to take bit-identical update steps.
func (s *SGD) ExportState() []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(s.velocity))
	for i, v := range s.velocity {
		out[i] = v.Clone()
	}
	return out
}

// ImportState restores momentum buffers captured by ExportState into an
// optimizer over a structurally identical parameter set.
func (s *SGD) ImportState(velocity []*tensor.Tensor) error {
	if len(velocity) != len(s.velocity) {
		return fmt.Errorf("optim: state has %d velocity buffers, optimizer has %d", len(velocity), len(s.velocity))
	}
	for i, v := range velocity {
		if v == nil {
			return fmt.Errorf("optim: velocity %d missing from saved state", i)
		}
		if !s.velocity[i].SameShape(v) {
			return fmt.Errorf("optim: velocity %d shape %v != saved %v", i, s.velocity[i].Shape(), v.Shape())
		}
	}
	for i, v := range velocity {
		s.velocity[i].CopyFrom(v)
	}
	return nil
}

// GradNorm returns the global L2 norm of all gradients; handy for
// debugging divergence.
func (s *SGD) GradNorm() float64 {
	var sum float64
	for _, p := range s.params {
		for _, g := range p.Grad.Data() {
			sum += float64(g) * float64(g)
		}
	}
	return math.Sqrt(sum)
}

// ClipGradNorm scales all gradients so the global norm is at most c.
// Returns the pre-clip norm.
func (s *SGD) ClipGradNorm(c float64) float64 {
	n := s.GradNorm()
	if n > c && n > 0 {
		scale := float32(c / n)
		for _, p := range s.params {
			p.Grad.Scale(scale)
		}
	}
	return n
}
