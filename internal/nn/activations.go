package nn

import (
	"math"

	"github.com/ftpim/ftpim/internal/tensor"
)

// ReLU is the rectified linear activation, max(0, x).
type ReLU struct {
	out []float32        // the last training forward's output, which gates Backward
	ws  tensor.Workspace // slot 0: forward out; slot 1: backward dX
}

// NewReLU returns a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward clamps negatives to zero, keeping its output for Backward
// when training. Every element is written (the workspace buffer
// carries the previous iteration's values), and the choice between v
// and +0 is a bit mask, not a branch on the data: ReLU sees about half
// its inputs negative, so a branch mispredicts often.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := r.ws.Get(0, x.Shape()...)
	xd, od := x.Data(), out.Data()
	for i, v := range xd {
		od[i] = math.Float32frombits(math.Float32bits(v) & tensor.ReLUMask(v))
	}
	r.out = nil
	if train {
		r.out = od
	}
	return out
}

// Backward gates the gradient by the forward's output: the unit was
// active exactly where its output is > 0.
func (r *ReLU) Backward(dOut *tensor.Tensor) *tensor.Tensor {
	if r.out == nil {
		panic("nn: ReLU.Backward without training Forward")
	}
	dX := r.ws.Get(1, dOut.Shape()...)
	reluGate(dX.Data(), dOut.Data(), r.out)
	return dX
}

// reluGate sets dst to d gated by the ReLU output y, as a bit mask
// rather than a branch: +0 where y is not > 0 (the unit was inactive),
// and d's own bits where it is.
func reluGate(dst, d, y []float32) {
	y = y[:len(d)]
	for i, v := range d {
		dst[i] = math.Float32frombits(math.Float32bits(v) & tensor.ReLUMask(y[i]))
	}
}

// Params returns nil; ReLU has no parameters.
func (r *ReLU) Params() []*Param { return nil }

// Flatten reshapes (N, C, H, W) to (N, C·H·W).
type Flatten struct {
	lastShape []int
	ws        tensor.Workspace // slot 0: forward view; slot 1: backward view
}

// NewFlatten returns a Flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward flattens all but the batch dimension. The input's shape is
// copied, not aliased: upstream layers reuse their shape slices in
// place, so a retained reference would be silently rewritten.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	f.lastShape = append(f.lastShape[:0], x.Shape()...)
	n := x.Dim(0)
	return f.ws.View(0, x.Data(), n, x.Len()/n)
}

// Backward restores the original shape.
func (f *Flatten) Backward(dOut *tensor.Tensor) *tensor.Tensor {
	return f.ws.View(1, dOut.Data(), f.lastShape...)
}

// Params returns nil; Flatten has no parameters.
func (f *Flatten) Params() []*Param { return nil }

// GlobalAvgPool2D averages each channel over its spatial extent,
// mapping (N, C, H, W) to (N, C).
type GlobalAvgPool2D struct {
	lastShape []int
	ws        tensor.Workspace // slot 0: forward out; slot 1: backward dX
}

// NewGlobalAvgPool2D returns a global average pooling layer.
func NewGlobalAvgPool2D() *GlobalAvgPool2D { return &GlobalAvgPool2D{} }

// Forward averages spatially.
func (g *GlobalAvgPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	g.lastShape = append(g.lastShape[:0], x.Shape()...)
	area := h * w
	out := g.ws.Get(0, n, c)
	xd, od := x.Data(), out.Data()
	inv := 1 / float32(area)
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			base := (i*c + ch) * area
			var s float32
			for j := 0; j < area; j++ {
				s += xd[base+j]
			}
			od[i*c+ch] = s * inv
		}
	}
	return out
}

// Backward spreads each channel gradient uniformly over the spatial
// positions.
func (g *GlobalAvgPool2D) Backward(dOut *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := g.lastShape[0], g.lastShape[1], g.lastShape[2], g.lastShape[3]
	area := h * w
	dX := g.ws.Get(1, n, c, h, w)
	dd, dxd := dOut.Data(), dX.Data()
	inv := 1 / float32(area)
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			v := dd[i*c+ch] * inv
			base := (i*c + ch) * area
			for j := 0; j < area; j++ {
				dxd[base+j] = v
			}
		}
	}
	return dX
}

// Params returns nil; pooling has no parameters.
func (g *GlobalAvgPool2D) Params() []*Param { return nil }
