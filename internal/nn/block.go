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

	downsample  bool
	inC, outC   int
	stride      int
	lastInShape []int
	// ws slots: 0 the training forward's shortcut out; 1 shortcut dX;
	// 2 the gradient through the final ReLU.
	ws tensor.Workspace
	// mid holds conv2's input plane when the block runs inference on
	// its own; inside a Sequential the trunk's planes hold it.
	mid planePool
}

// NewBasicBlock builds a residual block mapping inC→outC channels with
// the given stride on its first convolution.
func NewBasicBlock(name string, inC, outC, stride int, rng *tensor.RNG) *BasicBlock {
	return &BasicBlock{
		Conv1:      NewConv2D(name+".conv1", inC, outC, 3, 3, stride, 1, false, rng),
		BN1:        NewBatchNorm2D(name+".bn1", outC),
		Conv2:      NewConv2D(name+".conv2", outC, outC, 3, 3, 1, 1, false, rng),
		BN2:        NewBatchNorm2D(name+".bn2", outC),
		downsample: stride != 1 || inC != outC,
		inC:        inC, outC: outC, stride: stride,
	}
}

// Forward runs the residual block as two convs, each followed by one
// pass that applies its batch norm, the shortcut (second conv only) and
// the ReLU. At inference that pass is the conv's epilogue (infer, with
// conv1 reading x where it lies, conv2's input in batch-row planes and
// the output dense); in training it is the batch norm's normalize pass
// (BatchNorm2D.forwardTrain). Either way it holds the bits of the
// layers run one after another. The block's convs have no bias and its
// batch norms match their channels, by construction.
func (b *BasicBlock) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	b.lastInShape = append(b.lastInShape[:0], x.Shape()...)
	if !train {
		b.Conv1.checkInput(x)
		src := densePlane(x)
		oh, ow := b.Conv1.outSize(src.H, src.W)
		out := b.Conv2.outputFor(src.N, oh, ow)
		b.infer(densePlane(out), src, b.mid.get(src.N, b.outC, oh, ow, b.Conv2.Pad, nil, nil))
		return out
	}
	h := b.BN1.forwardTrain(b.Conv1.Forward(x, true), nil, true)
	return b.BN2.forwardTrain(b.Conv2.Forward(h, true), b.shortcut(x), true)
}

// infer is the block's inference forward on planes: conv1, BN1 and the
// first ReLU store into the interior of mid, conv2's zero-bordered
// input plane, which conv2, BN2, the shortcut and the final ReLU read
// in place to store into out. The identity shortcut is x itself, read
// where it lies; option A first writes x's subsampled values into out's
// interior, which conv2's epilogue reads as the residual just before it
// stores over each value. out may alias neither x nor mid.
func (b *BasicBlock) infer(out, x, mid tensor.Plane) {
	b.Conv1.fusedForward(mid, x, b.BN1, tensor.Plane{})
	r := x
	if b.downsample {
		b.subsample(out, x)
		r = out
	}
	b.Conv2.fusedForward(out, mid, b.BN2, r)
}

// shortcut returns the shortcut branch's output: x itself, or its
// option-A image when the block changes shape.
func (b *BasicBlock) shortcut(x *tensor.Tensor) *tensor.Tensor {
	if !b.downsample {
		return x
	}
	out := b.ws.Get(0, x.Dim(0), b.outC, (x.Dim(2)+b.stride-1)/b.stride, (x.Dim(3)+b.stride-1)/b.stride)
	b.subsample(densePlane(out), densePlane(x))
	return out
}

// subsample writes option A's image of the plane x, spatial subsample
// and channel pad, into every interior value of the plane out, whose
// images are ⌈H/stride⌉ × ⌈W/stride⌉: channel c < inC holds every
// stride-th value of x's channel c, and the channels past inC hold +0.
func (b *BasicBlock) subsample(out, x tensor.Plane) {
	// The distance from a value of one sample to the same value of the
	// next, in either layout.
	oss, xss := out.Offset(1, 0, 0, 0)-out.Offset(0, 0, 0, 0), x.Offset(1, 0, 0, 0)-x.Offset(0, 0, 0, 0)
	for c := 0; c < b.outC; c++ {
		for y := 0; y < out.H; y++ {
			o := out.Offset(0, c, y, 0)
			if c >= b.inC {
				for i := 0; i < x.N; i, o = i+1, o+oss {
					clear(out.Data[o:][:out.W])
				}
				continue
			}
			xo := x.Offset(0, c, y*b.stride, 0)
			for i := 0; i < x.N; i, o, xo = i+1, o+oss, xo+xss {
				row := out.Data[o:][:out.W]
				in := x.Data[xo:][:(out.W-1)*b.stride+1]
				for xc := range row {
					row[xc] = in[xc*b.stride]
				}
			}
		}
	}
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
// The gradient through the final ReLU, gated by the block's output,
// flows into both the residual branch and the shortcut, so it is formed
// once; the first ReLU's gate runs inside BN1's backward.
func (b *BasicBlock) Backward(dOut *tensor.Tensor) *tensor.Tensor {
	if b.BN2.gate == nil {
		panic("nn: BasicBlock.Backward without training Forward")
	}
	d := b.ws.Get(2, dOut.Shape()...)
	reluGate(d.Data(), dOut.Data(), b.BN2.gate)
	dBranch := b.BN2.backward(d, nil)
	dBranch = b.Conv2.Backward(dBranch)
	dBranch = b.BN1.Backward(dBranch)
	dBranch = b.Conv1.Backward(dBranch)
	if b.downsample {
		d = b.shortcutBackward(d)
	}
	dBranch.AddInPlace(d)
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
