package nn

import (
	"math"

	"github.com/ftpim/ftpim/internal/tensor"
)

// ReLU is the rectified linear activation, max(0, x).
type ReLU struct {
	mask []bool
	ws   tensor.Workspace // slot 0: forward out; slot 1: backward dX
}

// NewReLU returns a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward clamps negatives to zero, caching the active mask for
// backward when training. Every element is written (the workspace
// buffer carries the previous iteration's values), and the choice
// between v and +0 is a bit mask, not a branch on the data: ReLU sees
// about half its inputs negative, so a branch mispredicts often.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := r.ws.Get(0, x.Shape()...)
	xd, od := x.Data(), out.Data()
	if train {
		if len(r.mask) < len(xd) {
			r.mask = make([]bool, len(xd))
		}
		mask := r.mask[:len(xd)]
		for i, v := range xd {
			m := reluMask(v)
			od[i] = math.Float32frombits(math.Float32bits(v) & m)
			mask[i] = m != 0
		}
	} else {
		for i, v := range xd {
			od[i] = math.Float32frombits(math.Float32bits(v) & reluMask(v))
		}
	}
	return out
}

// reluMask returns all ones when v > 0 and zero otherwise, so -0 and
// NaN select +0 just as the comparison does. v > 0 exactly when its
// bits b lie in [1, 0x7f800000] (+Inf included): when b-1, as an
// unsigned 32-bit value, is below 0x7f800000. The difference below is
// negative exactly then, and its sign bit is the mask.
func reluMask(v float32) uint32 {
	return uint32((int64(math.Float32bits(v)-1) - 0x7f800000) >> 63)
}

// Backward gates the gradient by the cached activation mask.
func (r *ReLU) Backward(dOut *tensor.Tensor) *tensor.Tensor {
	dX := r.ws.Get(1, dOut.Shape()...)
	dd, dxd := dOut.Data(), dX.Data()
	for i, v := range dd {
		if r.mask[i] {
			dxd[i] = v
		} else {
			dxd[i] = 0
		}
	}
	return dX
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
