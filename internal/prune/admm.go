package prune

import (
	"fmt"
	"math"
	"sort"

	"github.com/ftpim/ftpim/internal/nn"
	"github.com/ftpim/ftpim/internal/tensor"
)

// ADMM drives the alternating-direction-method-of-multipliers pruning
// of Zhang et al. [12]. The weight loss is augmented with
//
//	(ρ/2)·Σ ‖W − Z + U‖²
//
// where Z is the projection of W+U onto the sparsity constraint set
// (top-k magnitude) and U is the scaled dual variable. The training
// loop calls AddPenaltyGrad after every backward pass and UpdateDuals
// every few epochs; Finalize hard-prunes to the learned pattern.
type ADMM struct {
	Rho      float64
	Sparsity float64

	params []*nn.Param
	z, u   []*tensor.Tensor
}

// NewADMM initializes the auxiliary variables: Z starts at the
// projection of the current weights, U at zero.
func NewADMM(params []*nn.Param, sparsity, rho float64) *ADMM {
	if sparsity < 0 || sparsity >= 1 {
		panic(fmt.Sprintf("prune: ADMM sparsity %v out of [0,1)", sparsity))
	}
	if rho <= 0 {
		panic("prune: ADMM rho must be positive")
	}
	a := &ADMM{Rho: rho, Sparsity: sparsity, params: params}
	for _, p := range params {
		z := p.W.Clone()
		projectTopK(z, sparsity)
		a.z = append(a.z, z)
		a.u = append(a.u, tensor.New(p.W.Shape()...))
	}
	return a
}

// AddPenaltyGrad adds ρ·(W − Z + U) to each parameter gradient — the
// gradient of the augmented-Lagrangian penalty. Call after the task
// backward pass, before the optimizer step.
func (a *ADMM) AddPenaltyGrad() {
	rho := float32(a.Rho)
	for i, p := range a.params {
		g, w := p.Grad.Data(), p.W.Data()
		zd, ud := a.z[i].Data(), a.u[i].Data()
		for j := range g {
			g[j] += rho * (w[j] - zd[j] + ud[j])
		}
	}
}

// UpdateDuals performs the Z and U updates:
//
//	Z ← Π_S(W + U),  U ← U + W − Z.
func (a *ADMM) UpdateDuals() {
	for i, p := range a.params {
		w := p.W.Data()
		zd, ud := a.z[i].Data(), a.u[i].Data()
		for j := range zd {
			zd[j] = w[j] + ud[j]
		}
		projectTopK(a.z[i], a.Sparsity)
		for j := range ud {
			ud[j] += w[j] - zd[j]
		}
	}
}

// ADMMState is the serializable auxiliary state of an ADMM run — the
// Z projections and scaled duals U — captured by ExportState so a
// checkpointed ADMM training phase can resume mid-run with identical
// penalty gradients and dual updates.
type ADMMState struct {
	Z, U []*tensor.Tensor
}

// ExportState returns a deep copy of the Z and U variables.
func (a *ADMM) ExportState() *ADMMState {
	st := &ADMMState{}
	for i := range a.params {
		st.Z = append(st.Z, a.z[i].Clone())
		st.U = append(st.U, a.u[i].Clone())
	}
	return st
}

// ImportState restores Z and U captured by ExportState into an ADMM
// instance over a structurally identical parameter set.
func (a *ADMM) ImportState(st *ADMMState) error {
	if st == nil || len(st.Z) != len(a.z) || len(st.U) != len(a.u) {
		return fmt.Errorf("prune: ADMM state shape mismatch")
	}
	for i := range a.z {
		if st.Z[i] == nil || st.U[i] == nil || !a.z[i].SameShape(st.Z[i]) || !a.u[i].SameShape(st.U[i]) {
			return fmt.Errorf("prune: ADMM state tensor %d shape mismatch", i)
		}
	}
	for i := range a.z {
		a.z[i].CopyFrom(st.Z[i])
		a.u[i].CopyFrom(st.U[i])
	}
	return nil
}

// PrimalResidual returns ‖W − Z‖₂ summed over params — the convergence
// measure of the ADMM split.
func (a *ADMM) PrimalResidual() float64 {
	var sum float64
	for i, p := range a.params {
		w := p.W.Data()
		zd := a.z[i].Data()
		for j := range w {
			d := float64(w[j] - zd[j])
			sum += d * d
		}
	}
	return math.Sqrt(sum)
}

// Finalize hard-prunes every parameter to its Z sparsity pattern
// (per-layer top-k of the final W+U projection), installing masks for
// the fine-tuning phase.
func (a *ADMM) Finalize() {
	for i, p := range a.params {
		mask := tensor.Ones(p.W.Shape()...)
		md := mask.Data()
		for j, zv := range a.z[i].Data() {
			if zv == 0 {
				md[j] = 0
			}
		}
		p.Mask = mask
		p.ApplyMask()
	}
}

// projectTopK zeroes all but the (1−sparsity) fraction of largest-
// magnitude entries of t (per-tensor projection, as in [12]).
func projectTopK(t *tensor.Tensor, sparsity float64) {
	n := t.Len()
	k := int(float64(n) * sparsity) // number to zero
	if k <= 0 {
		return
	}
	if k >= n {
		t.Zero()
		return
	}
	mags := make([]float32, n)
	d := t.Data()
	for i, v := range d {
		mags[i] = abs32(v)
	}
	sorted := append([]float32(nil), mags...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	thr := sorted[k]
	// Zero strictly-below-threshold entries first, then resolve ties at
	// the threshold so exactly k entries are zeroed.
	zeroed := 0
	for i := range d {
		if mags[i] < thr {
			d[i] = 0
			zeroed++
		}
	}
	if zeroed < k {
		for i := range d {
			if zeroed == k {
				break
			}
			if mags[i] == thr && d[i] != 0 {
				d[i] = 0
				zeroed++
			}
		}
	}
}
