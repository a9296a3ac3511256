package nn

import (
	"fmt"
	"math"

	"github.com/ftpim/ftpim/internal/tensor"
)

// BatchNorm2D normalizes each channel of an NCHW batch to zero mean and
// unit variance using batch statistics during training and running
// statistics at inference, followed by a learned affine transform.
type BatchNorm2D struct {
	C        int
	Eps      float64
	Momentum float64 // running-stat update rate (PyTorch convention)

	Gamma, Beta             *Param
	RunningMean, RunningVar *tensor.Tensor

	// backward caches
	lastXHat *tensor.Tensor
	// invStd holds 1/√(var+ε) per channel of the last forward: of the
	// batch variance in training (for Backward), of the running
	// variance at inference (evalInv).
	invStd    []float32
	lastShape []int
	ws        tensor.Workspace // slot 0: forward out; slot 1: backward dX
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
	if x.Rank() != 4 || x.Dim(1) != bn.C {
		panic(fmt.Sprintf("nn: BatchNorm2D input shape %v, want (N,%d,H,W)", x.Shape(), bn.C))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	area := h * w
	cnt := n * area
	out := bn.ws.Get(0, x.Shape()...) // every element written below
	xd, od := x.Data(), out.Data()
	gd, bd := bn.Gamma.W.Data(), bn.Beta.W.Data()

	if train {
		if bn.lastXHat == nil || !bn.lastXHat.SameShape(x) {
			bn.lastXHat = tensor.New(x.Shape()...)
		}
		if len(bn.invStd) < bn.C {
			bn.invStd = make([]float32, bn.C)
		}
		xh := bn.lastXHat.Data()
		for c := 0; c < bn.C; c++ {
			var sum, sq float64
			for i := 0; i < n; i++ {
				base := (i*bn.C + c) * area
				for j := 0; j < area; j++ {
					v := float64(xd[base+j])
					sum += v
					sq += float64(v * v)
				}
			}
			mean := sum / float64(cnt)
			variance := sq/float64(cnt) - float64(mean*mean)
			if variance < 0 {
				variance = 0
			}
			inv := float32(1 / math.Sqrt(variance+bn.Eps))
			bn.invStd[c] = inv
			m32 := float32(mean)
			g, b := gd[c], bd[c]
			for i := 0; i < n; i++ {
				base := (i*bn.C + c) * area
				for j := 0; j < area; j++ {
					xn := (xd[base+j] - m32) * inv
					xh[base+j] = xn
					od[base+j] = float32(g*xn) + b
				}
			}
			// Unbiased variance for the running estimate, as PyTorch does.
			unb := variance
			if cnt > 1 {
				unb = variance * float64(cnt) / float64(cnt-1)
			}
			rm, rv := bn.RunningMean.Data(), bn.RunningVar.Data()
			rm[c] = float32(float64((1-bn.Momentum)*float64(rm[c])) + float64(bn.Momentum*mean))
			rv[c] = float32(float64((1-bn.Momentum)*float64(rv[c])) + float64(bn.Momentum*unb))
		}
		bn.lastShape = append(bn.lastShape[:0], x.Shape()...)
	} else {
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
		bn.lastXHat = nil
	}
	return out
}

// evalInv fills invStd with the inference scale 1/√(running var + ε)
// of every channel, as the inference forward and a fused conv
// epilogue (Conv2D.forwardBNReLU) apply it, and returns it.
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

// Backward implements the standard batch-norm gradient.
func (bn *BatchNorm2D) Backward(dOut *tensor.Tensor) *tensor.Tensor {
	if bn.lastXHat == nil {
		panic("nn: BatchNorm2D.Backward without training Forward")
	}
	n, h, w := dOut.Dim(0), dOut.Dim(2), dOut.Dim(3)
	area := h * w
	cnt := float64(n * area)
	dX := bn.ws.Get(1, dOut.Shape()...) // every element written below
	dd, xh, dxd := dOut.Data(), bn.lastXHat.Data(), dX.Data()
	gG, gB := bn.Gamma.Grad.Data(), bn.Beta.Grad.Data()
	gd := bn.Gamma.W.Data()

	for c := 0; c < bn.C; c++ {
		var sumDy, sumDyXh float64
		for i := 0; i < n; i++ {
			base := (i*bn.C + c) * area
			for j := 0; j < area; j++ {
				dy := float64(dd[base+j])
				sumDy += dy
				sumDyXh += float64(dy * float64(xh[base+j]))
			}
		}
		gB[c] += float32(sumDy)
		gG[c] += float32(sumDyXh)
		k := float64(gd[c]) * float64(bn.invStd[c])
		meanDy := sumDy / cnt
		meanDyXh := sumDyXh / cnt
		for i := 0; i < n; i++ {
			base := (i*bn.C + c) * area
			for j := 0; j < area; j++ {
				dy := float64(dd[base+j])
				xn := float64(xh[base+j])
				dxd[base+j] = float32(k * (dy - meanDy - float64(xn*meanDyXh)))
			}
		}
	}
	return dX
}

// Params returns gamma and beta.
func (bn *BatchNorm2D) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }

// Stats returns the running mean/var tensors (shared, not copies); used
// by model serialization.
func (bn *BatchNorm2D) Stats() (mean, variance *tensor.Tensor) {
	return bn.RunningMean, bn.RunningVar
}
