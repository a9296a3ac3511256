package nn

import (
	"github.com/ftpim/ftpim/internal/tensor"
)

// BasicBlock is the CIFAR ResNet residual block:
//
//	out = ReLU( BN2(Conv2( ReLU(BN1(Conv1(x))) )) + shortcut(x) )
//
// The shortcut is the identity when shape is preserved, and otherwise
// "option A" from He et al.: stride-2 spatial subsampling with
// zero-padded channels (parameter-free, as used by the original CIFAR
// ResNet-20/32 the paper evaluates).
type BasicBlock struct {
	Conv1 *Conv2D
	BN1   *BatchNorm2D
	Conv2 *Conv2D
	BN2   *BatchNorm2D

	relu1, relu2 *ReLU
	downsample   bool
	inC, outC    int
	stride       int
	lastInShape  []int
	ws           tensor.Workspace // slot 0: shortcut out; slot 1: shortcut dX
}

// NewBasicBlock builds a residual block mapping inC→outC channels with
// the given stride on its first convolution.
func NewBasicBlock(name string, inC, outC, stride int, rng *tensor.RNG) *BasicBlock {
	return &BasicBlock{
		Conv1:      NewConv2D(name+".conv1", inC, outC, 3, 3, stride, 1, false, rng),
		BN1:        NewBatchNorm2D(name+".bn1", outC),
		Conv2:      NewConv2D(name+".conv2", outC, outC, 3, 3, 1, 1, false, rng),
		BN2:        NewBatchNorm2D(name+".bn2", outC),
		relu1:      NewReLU(),
		relu2:      NewReLU(),
		downsample: stride != 1 || inC != outC,
		inC:        inC, outC: outC, stride: stride,
	}
}

// Forward runs the residual block. At inference it is two fused convs
// (Conv2D.forwardBNReLU): conv1 with BN1 and the first ReLU, then conv2
// with BN2, the shortcut and the final ReLU, with the bits of the
// layer-by-layer pass below.
func (b *BasicBlock) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	b.lastInShape = append(b.lastInShape[:0], x.Shape()...)
	if !train && b.Conv1.fuses(b.BN1) && b.Conv2.fuses(b.BN2) {
		h := b.Conv1.forwardBNReLU(x, b.BN1, nil)
		return b.Conv2.forwardBNReLU(h, b.BN2, b.shortcut(x))
	}
	h := b.Conv1.Forward(x, train)
	h = b.BN1.Forward(h, train)
	h = b.relu1.Forward(h, train)
	h = b.Conv2.Forward(h, train)
	h = b.BN2.Forward(h, train)
	h.AddInPlace(b.shortcut(x))
	return b.relu2.Forward(h, train)
}

// shortcut returns the shortcut branch's output: x itself, or its
// option-A image when the block changes shape.
func (b *BasicBlock) shortcut(x *tensor.Tensor) *tensor.Tensor {
	if b.downsample {
		return b.shortcutForward(x)
	}
	return x
}

// shortcutForward implements option-A: spatial subsample + channel pad.
func (b *BasicBlock) shortcutForward(x *tensor.Tensor) *tensor.Tensor {
	n, _, hIn, wIn := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	hOut := (hIn + b.stride - 1) / b.stride
	wOut := (wIn + b.stride - 1) / b.stride
	// Zero-padded channels [inC, outC) are never written below, so the
	// reused buffer must start zeroed.
	out := b.ws.GetZeroed(0, n, b.outC, hOut, wOut)
	xd, od := x.Data(), out.Data()
	for i := 0; i < n; i++ {
		for c := 0; c < b.inC; c++ {
			inBase := (i*b.inC + c) * hIn * wIn
			outBase := (i*b.outC + c) * hOut * wOut
			for y := 0; y < hOut; y++ {
				for xcol := 0; xcol < wOut; xcol++ {
					od[outBase+y*wOut+xcol] = xd[inBase+y*b.stride*wIn+xcol*b.stride]
				}
			}
		}
	}
	return out
}

// shortcutBackward scatters a gradient through the option-A shortcut.
func (b *BasicBlock) shortcutBackward(dOut *tensor.Tensor) *tensor.Tensor {
	n := dOut.Dim(0)
	hIn, wIn := b.lastInShape[2], b.lastInShape[3]
	hOut, wOut := dOut.Dim(2), dOut.Dim(3)
	// Only strided positions are written below; the rest must be zero.
	dX := b.ws.GetZeroed(1, n, b.inC, hIn, wIn)
	dd, dxd := dOut.Data(), dX.Data()
	for i := 0; i < n; i++ {
		for c := 0; c < b.inC; c++ { // padded channels carry no gradient
			outBase := (i*b.outC + c) * hOut * wOut
			inBase := (i*b.inC + c) * hIn * wIn
			for y := 0; y < hOut; y++ {
				for xcol := 0; xcol < wOut; xcol++ {
					dxd[inBase+y*b.stride*wIn+xcol*b.stride] = dd[outBase+y*wOut+xcol]
				}
			}
		}
	}
	return dX
}

// Backward propagates through both branches and sums the input grads.
func (b *BasicBlock) Backward(dOut *tensor.Tensor) *tensor.Tensor {
	d := b.relu2.Backward(dOut)
	// d flows into both the residual branch and the shortcut.
	dBranch := b.BN2.Backward(d)
	dBranch = b.Conv2.Backward(dBranch)
	dBranch = b.relu1.Backward(dBranch)
	dBranch = b.BN1.Backward(dBranch)
	dBranch = b.Conv1.Backward(dBranch)

	var dShort *tensor.Tensor
	if b.downsample {
		dShort = b.shortcutBackward(d)
	} else {
		dShort = d
	}
	dBranch.AddInPlace(dShort)
	return dBranch
}

// Params returns the block's parameters in a stable order.
func (b *BasicBlock) Params() []*Param {
	ps := b.Conv1.Params()
	ps = append(ps, b.BN1.Params()...)
	ps = append(ps, b.Conv2.Params()...)
	ps = append(ps, b.BN2.Params()...)
	return ps
}

// BatchNorms exposes the block's BN layers for serialization.
func (b *BasicBlock) BatchNorms() []*BatchNorm2D { return []*BatchNorm2D{b.BN1, b.BN2} }
