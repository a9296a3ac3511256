package nn

import (
	"fmt"

	"github.com/ftpim/ftpim/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW inputs, lowered to GEMM
// implicitly (tensor.ConvGemmForward/Backward): the whole batch runs as
// one OutC × (InC·kh·kw) × (N·outH·outW) product whose tiles read the
// input through a table of tap offsets into zero-bordered batch-row
// phase rows, in which a row of a channel holds that row of every
// sample (split by parity when strided), so no column matrix is ever
// materialized. At inference a conv followed by batch norm and a ReLU
// (Sequential, BasicBlock) runs them in the conv's epilogue
// (fusedForward), which can store straight into the plane the next
// conv reads. Weights are stored flat as (outC, inC·kh·kw), which is
// also the layout mapped onto ReRAM crossbar columns by
// internal/reram. Bias is optional and off by default (batch norm
// follows every conv in the ResNet models).
type Conv2D struct {
	InC, OutC   int
	KH, KW      int
	Stride, Pad int
	Weight      *Param
	Bias        *Param // nil when disabled
	lastIn      *tensor.Tensor
	// ws slots: 0 forward out; 1 backward dX; 2 per-sample dW chunks.
	ws         tensor.Workspace
	ep         tensor.ConvEpilogue // fusedForward's epilogue
	inH, inW   int
	outH, outW int
}

// NewConv2D creates a 3×3-style convolution layer. He initialization
// is applied with fan-in inC·kh·kw.
func NewConv2D(name string, inC, outC, kh, kw, stride, pad int, bias bool, rng *tensor.RNG) *Conv2D {
	c := &Conv2D{
		InC: inC, OutC: outC, KH: kh, KW: kw, Stride: stride, Pad: pad,
		Weight: NewParam(name+".weight", outC, inC*kh*kw),
	}
	tensor.InitHe(c.Weight.W, rng, inC*kh*kw)
	if bias {
		c.Bias = NewParam(name+".bias", outC)
		c.Bias.Decay = false
	}
	return c
}

// Forward computes the convolution for an NCHW batch as one implicit
// GEMM over the whole batch; ConvGemmForward shards it across groups of
// samples, bit-identical at any worker count.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out, n := c.output(x), x.Dim(0)
	tensor.ConvGemmForward(out.Data(), c.Weight.W.Data(), x.Data(),
		n, c.InC, c.inH, c.inW, c.OutC, c.KH, c.KW, c.Stride, c.Pad)
	if c.Bias != nil {
		bd := c.Bias.W.Data()
		od := out.Data()
		outArea := c.outH * c.outW
		outStride := c.OutC * outArea
		for i := 0; i < n; i++ {
			for oc := 0; oc < c.OutC; oc++ {
				base := i*outStride + oc*outArea
				b := bd[oc]
				for j := 0; j < outArea; j++ {
					od[base+j] += b
				}
			}
		}
	}
	if train {
		c.lastIn = x
	} else {
		c.lastIn = nil
	}
	return out
}

// output checks x's shape, records the geometry Backward needs, and
// returns the output tensor. The output (like every layer's) lives in
// the layer's workspace: it is valid until the next Forward call and
// every element is written by the GEMM, so Get (unspecified contents)
// is safe.
func (c *Conv2D) output(x *tensor.Tensor) *tensor.Tensor {
	c.checkInput(x)
	return c.outputFor(x.Dim(0), x.Dim(2), x.Dim(3))
}

// outputFor is output for n inputs of h×w, checked by the caller.
func (c *Conv2D) outputFor(n, h, w int) *tensor.Tensor {
	oh, ow := c.outSize(h, w)
	return c.ws.Get(0, n, c.OutC, oh, ow)
}

// checkInput panics unless x is an (N, InC, H, W) batch.
func (c *Conv2D) checkInput(x *tensor.Tensor) {
	if x.Rank() != 4 || x.Dim(1) != c.InC {
		panic(fmt.Sprintf("nn: Conv2D input shape %v, want (N,%d,H,W)", x.Shape(), c.InC))
	}
}

// outSize records the geometry of an h×w input and returns the
// output's height and width.
func (c *Conv2D) outSize(h, w int) (int, int) {
	c.inH, c.inW = h, w
	c.outH = tensor.ConvOutSize(h, c.KH, c.Stride, c.Pad)
	c.outW = tensor.ConvOutSize(w, c.KW, c.Stride, c.Pad)
	return c.outH, c.outW
}

// fuses reports whether fusedForward can run the conv with bn: the
// conv has no bias and bn normalizes its output channels.
func (c *Conv2D) fuses(bn *BatchNorm2D) bool {
	return c.Bias == nil && bn.C == c.OutC
}

// forwardBNReLU is fusedForward from and into dense batches: the
// result lives in the conv's workspace; bn's and the ReLU's are not
// touched. The int8 calibration walk, which observes the dense
// activations, runs a block's convs through it.
func (c *Conv2D) forwardBNReLU(x *tensor.Tensor, bn *BatchNorm2D, r *tensor.Tensor) *tensor.Tensor {
	out := c.output(x)
	var rp tensor.Plane
	if r != nil {
		if !r.SameShape(out) {
			panic(fmt.Sprintf("nn: residual shape %v, conv output %v", r.Shape(), out.Shape()))
		}
		rp = densePlane(r)
	}
	c.fusedForward(densePlane(out), densePlane(x), bn, rp)
	return out
}

// fusedForward is the inference forward of the conv, bn, the residual
// r (none when r.Data is nil) and a ReLU in one pass, from the plane
// src into the interior of the plane dst: the conv's epilogue
// (tensor.ConvEpilogue) applies bn's running-statistics transform, adds
// r and applies the ReLU to each output run while it is cache-hot, in
// the operation sequence of the separate layers, so the result holds
// the bits of Forward(x, false), bn.Forward, AddInPlace(r) and
// ReLU.Forward run one after another. r is a plane of dst's shape in
// either layout, and may be dst itself. It needs fuses(bn): Sequential
// checks that before each call, and a BasicBlock (and the int8
// calibration walking one) meets it by construction, its convs having
// no bias and its batch norms their output channels.
func (c *Conv2D) fusedForward(dst, src tensor.Plane, bn *BatchNorm2D, r tensor.Plane) {
	c.ep = tensor.ConvEpilogue{
		Mean: bn.RunningMean.Data(), Mul1: bn.Gamma.W.Data(),
		Mul2: bn.evalInv(), Beta: bn.Beta.W.Data(),
		Residual: r,
	}
	tensor.ConvPlaneForward(dst, c.Weight.W.Data(), src, c.KH, c.KW, c.Stride, c.Pad, &c.ep)
	c.ep.Residual = tensor.Plane{} // the caller's buffer; not retained
	c.lastIn, bn.lastIn, bn.gate = nil, nil, nil
}

// densePlane views the NCHW batch x as a plane without a border.
func densePlane(x *tensor.Tensor) tensor.Plane {
	return tensor.Plane{Data: x.Data(), N: x.Dim(0), C: x.Dim(1), H: x.Dim(2), W: x.Dim(3)}
}

// Backward accumulates dW (and db) and returns dX. Column rows are
// regenerated on the fly inside ConvGemmBackward rather than cached,
// trading FLOPs for memory. The batched call produces one dW chunk per
// sample; adding them to the gradient in ascending sample order below
// preserves the per-sample accumulation order of the serial
// GemmTB+AddInPlace loop it replaced, keeping the §6/§7 bit-identity
// contract.
func (c *Conv2D) Backward(dOut *tensor.Tensor) *tensor.Tensor {
	if c.lastIn == nil {
		panic("nn: Conv2D.Backward without training Forward")
	}
	x := c.lastIn
	n := x.Dim(0)
	outArea := c.outH * c.outW
	colRows := c.InC * c.KH * c.KW

	// The batched call writes every element of dX and of the chunks.
	dX := c.ws.Get(1, x.Shape()...)
	chunks := c.ws.Get(2, n, c.OutC, colRows)
	tensor.ConvGemmBackward(dX.Data(), chunks.Data(), c.Weight.W.Data(),
		x.Data(), dOut.Data(), n, c.InC, c.inH, c.inW, c.OutC, c.KH, c.KW,
		c.Stride, c.Pad)
	tensor.AddRows(c.Weight.Grad.Data(), chunks.Data())
	if c.Bias != nil {
		bg := c.Bias.Grad.Data()
		dd := dOut.Data()
		outStride := c.OutC * outArea
		for i := 0; i < n; i++ {
			for oc := 0; oc < c.OutC; oc++ {
				base := i*outStride + oc*outArea
				var s float32
				for j := 0; j < outArea; j++ {
					s += dd[base+j]
				}
				bg[oc] += s
			}
		}
	}
	return dX
}

// Params returns the convolution's parameters.
func (c *Conv2D) Params() []*Param {
	if c.Bias != nil {
		return []*Param{c.Weight, c.Bias}
	}
	return []*Param{c.Weight}
}
