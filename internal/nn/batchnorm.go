package nn

import (
	"fmt"
	"math"

	"github.com/ftpim/ftpim/internal/tensor"
)

// BatchNorm2D normalizes each channel of an NCHW batch to zero mean and
// unit variance using batch statistics during training and running
// statistics at inference, followed by a learned affine transform.
//
// In training a batch norm runs as three passes over the batch: the
// per-channel statistics (tensor.BatchStats), one normalize pass
// (tensor.ConvEpilogue.Apply) and, back, the gradient sums and dX
// (tensor.BatchNormGradSums, tensor.BatchNormDX). In a BasicBlock the
// normalize pass also adds the shortcut and applies the ReLU that
// follow, and the backward gates the gradient by that ReLU's output
// (forwardTrain, backward); standalone, it is the same code with
// neither.
type BatchNorm2D struct {
	C        int
	Eps      float64
	Momentum float64 // running-stat update rate (PyTorch convention)

	Gamma, Beta             *Param
	RunningMean, RunningVar *tensor.Tensor

	// lastIn is the input of the last training forward, the caller's
	// tensor (as Conv2D keeps its input): Backward recomputes
	// x̂ = (x − mean)·invStd from it. gate is that forward's output when
	// it applied a ReLU, which gates Backward's gradient, and nil
	// otherwise.
	lastIn *tensor.Tensor
	gate   []float32
	// mean holds each channel's batch mean (in float32) of the last
	// training forward, and invStd its 1/√(var+ε): of the batch
	// variance in training (for Backward), of the running variance at
	// inference (evalInv).
	mean, invStd []float32
	f64          []float64 // 3·C: the forward's sums, the backward's sums and k
	ep           tensor.ConvEpilogue
	ws           tensor.Workspace // slot 0: forward out; slot 1: backward dX
}

// NewBatchNorm2D creates a batch-norm layer for c channels.
func NewBatchNorm2D(name string, c int) *BatchNorm2D {
	bn := &BatchNorm2D{
		C: c, Eps: 1e-5, Momentum: 0.1,
		Gamma:       NewParam(name+".gamma", c),
		Beta:        NewParam(name+".beta", c),
		RunningMean: tensor.New(c),
		RunningVar:  tensor.Ones(c),
	}
	bn.Gamma.W.Fill(1)
	bn.Gamma.Decay = false
	bn.Beta.Decay = false
	return bn
}

// Forward normalizes x per channel.
func (bn *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		return bn.forwardTrain(x, nil, false)
	}
	bn.checkInput(x)
	n, area := x.Dim(0), x.Dim(2)*x.Dim(3)
	out := bn.ws.Get(0, x.Shape()...) // every element written below
	xd, od := x.Data(), out.Data()
	gd, bd := bn.Gamma.W.Data(), bn.Beta.W.Data()
	rm, invs := bn.RunningMean.Data(), bn.evalInv()
	for c := 0; c < bn.C; c++ {
		m, g, b, inv := rm[c], gd[c], bd[c], invs[c]
		for i := 0; i < n; i++ {
			base := (i*bn.C + c) * area
			for j := 0; j < area; j++ {
				od[base+j] = float32(g*(xd[base+j]-m)*inv) + b
			}
		}
	}
	bn.lastIn, bn.gate = nil, nil
	return out
}

// checkInput panics unless x is an (N, C, H, W) batch of bn's channels.
func (bn *BatchNorm2D) checkInput(x *tensor.Tensor) {
	if x.Rank() != 4 || x.Dim(1) != bn.C {
		panic(fmt.Sprintf("nn: BatchNorm2D input shape %v, want (N,%d,H,W)", x.Shape(), bn.C))
	}
}

// forwardTrain is the training forward: it normalizes x with its batch
// statistics, adds the residual r when r is not nil, applies a ReLU
// when relu is set, and updates the running statistics. Each output
// element is ReLU(float32(((x − mean)·inv)·γ) + β [+ r]), every
// operation rounded on its own, which is the bits of the batch norm,
// AddInPlace(r) and ReLU run one after another.
func (bn *BatchNorm2D) forwardTrain(x, r *tensor.Tensor, relu bool) *tensor.Tensor {
	bn.checkInput(x)
	n, area := x.Dim(0), x.Dim(2)*x.Dim(3)
	cnt := n * area
	out := bn.ws.Get(0, x.Shape()...) // every element written by Apply
	if len(bn.f64) < 3*bn.C {
		bn.mean, bn.invStd = make([]float32, bn.C), make([]float32, bn.C)
		bn.f64 = make([]float64, 3*bn.C)
	}
	sum, sq := bn.f64[:bn.C], bn.f64[bn.C:2*bn.C]
	tensor.BatchStats(sum, sq, x.Data(), n, bn.C, area)
	rm, rv := bn.RunningMean.Data(), bn.RunningVar.Data()
	for c := 0; c < bn.C; c++ {
		mean := sum[c] / float64(cnt)
		variance := sq[c]/float64(cnt) - float64(mean*mean)
		if variance < 0 {
			variance = 0
		}
		bn.mean[c] = float32(mean)
		bn.invStd[c] = float32(1 / math.Sqrt(variance+bn.Eps))
		// Unbiased variance for the running estimate, as PyTorch does.
		unb := variance
		if cnt > 1 {
			unb = variance * float64(cnt) / float64(cnt-1)
		}
		rm[c] = float32(float64((1-bn.Momentum)*float64(rm[c])) + float64(bn.Momentum*mean))
		rv[c] = float32(float64((1-bn.Momentum)*float64(rv[c])) + float64(bn.Momentum*unb))
	}
	bn.ep = tensor.ConvEpilogue{
		Mean: bn.mean[:bn.C], Mul1: bn.invStd[:bn.C], Mul2: bn.Gamma.W.Data(), Beta: bn.Beta.W.Data(),
		NoReLU: !relu,
	}
	if r != nil {
		if !r.SameShape(x) {
			panic(fmt.Sprintf("nn: residual shape %v, batch norm input %v", r.Shape(), x.Shape()))
		}
		bn.ep.Residual = densePlane(r)
	}
	bn.ep.Apply(out.Data(), x.Data(), n, bn.C, area)
	bn.ep.Residual = tensor.Plane{} // the caller's tensor; not retained
	bn.lastIn, bn.gate = x, nil
	if relu {
		bn.gate = out.Data()
	}
	return out
}

// evalInv fills invStd with the inference scale 1/√(running var + ε)
// of every channel, as the inference forward and a fused conv
// epilogue (Conv2D.fusedForward) apply it, and returns it.
func (bn *BatchNorm2D) evalInv() []float32 {
	if len(bn.invStd) < bn.C {
		bn.invStd = make([]float32, bn.C)
	}
	rv := bn.RunningVar.Data()
	for c := 0; c < bn.C; c++ {
		bn.invStd[c] = float32(1 / math.Sqrt(float64(rv[c])+bn.Eps))
	}
	return bn.invStd[:bn.C]
}

// Backward implements the standard batch-norm gradient, through the
// ReLU when the training forward applied one.
func (bn *BatchNorm2D) Backward(dOut *tensor.Tensor) *tensor.Tensor {
	return bn.backward(dOut, bn.gate)
}

// backward returns dX for the output gradient dOut, gated by gate when
// gate is not nil, and accumulates γ's and β's gradients. Per channel,
// with dy the gated dOut and x̂ recomputed from the input:
//
//	dβ += float32(Σ dy), dγ += float32(Σ dy·x̂)
//	dX = float32(k·((dy − Σdy/cnt) − x̂·(Σdy·x̂/cnt))), k = γ·inv
//
// the sums in float64, in sample-then-position order.
func (bn *BatchNorm2D) backward(dOut *tensor.Tensor, gate []float32) *tensor.Tensor {
	x := bn.lastIn
	if x == nil {
		panic("nn: BatchNorm2D.Backward without training Forward")
	}
	if !dOut.SameShape(x) {
		panic(fmt.Sprintf("nn: BatchNorm2D.Backward gradient shape %v, input %v", dOut.Shape(), x.Shape()))
	}
	n, area := x.Dim(0), x.Dim(2)*x.Dim(3)
	cnt := float64(n * area)
	dX := bn.ws.Get(1, dOut.Shape()...) // every element written by BatchNormDX
	C := bn.C
	// meanDy and meanDyXh take the sums, then their means.
	meanDy, meanDyXh, k := bn.f64[:C], bn.f64[C:2*C], bn.f64[2*C:3*C]
	mean, inv := bn.mean[:C], bn.invStd[:C]
	tensor.BatchNormGradSums(meanDy, meanDyXh, dOut.Data(), gate, x.Data(), n, C, area, mean, inv)
	gG, gB := bn.Gamma.Grad.Data(), bn.Beta.Grad.Data()
	gd := bn.Gamma.W.Data()
	for c := 0; c < C; c++ {
		gB[c] += float32(meanDy[c])
		gG[c] += float32(meanDyXh[c])
		k[c] = float64(gd[c]) * float64(inv[c])
		meanDy[c] /= cnt
		meanDyXh[c] /= cnt
	}
	tensor.BatchNormDX(dX.Data(), dOut.Data(), gate, x.Data(), n, C, area, mean, inv, k, meanDy, meanDyXh)
	return dX
}

// Params returns gamma and beta.
func (bn *BatchNorm2D) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }

// Stats returns the running mean/var tensors (shared, not copies); used
// by model serialization.
func (bn *BatchNorm2D) Stats() (mean, variance *tensor.Tensor) {
	return bn.RunningMean, bn.RunningVar
}
