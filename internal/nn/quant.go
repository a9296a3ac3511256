package nn

// Int8 quantized inference path (ROADMAP item 4).
//
// A QuantizedNetwork is an inference-only mirror of a trained float32
// Network: conv and linear layers carry int8 weights with symmetric
// per-row (per output channel) scales, activations are quantized
// per-tensor with a scale calibrated post-training, and the matrix
// work runs through the int8 kernel family in internal/tensor
// (QuantizePadded + Im2RowS8 + GemmS8TB, int32 accumulators).
// Everything the int8 contract cannot express well — batch norm, ReLU,
// pooling, the residual add — runs in float32 on the dequantized
// activations, so only the GEMM-shaped 99% of the FLOPs moves to int8.
//
// One pass per conv: each sample is quantized straight into a
// zero-bordered int8 plane, its patches are gathered with no bounds
// tests, and the GEMM's int32 output goes through one epilogue. Inside
// a QBasicBlock that epilogue also runs the folded batch norm and the
// ReLU and quantizes the result straight into the second conv's plane;
// the second conv's epilogue runs its batch norm, the residual add and
// the final ReLU into the block's one float output buffer. Every float
// operation runs in the order the separate layers ran it, and each
// former layer boundary is an explicit float32 conversion, which the
// compiler may not fuse across, so the fused pass is bit-identical to
// the layer-by-layer one (quant_oracle_test.go keeps that path as the
// reference).
//
// Determinism: integer accumulation is associative, so the int8 GEMMs
// are bit-identical across kernels AND worker counts; the float stages
// are element-wise serial loops and every sample is computed on its
// own. A QuantizedNetwork forward is therefore bit-deterministic at any
// worker count and batch composition.
//
// Memory: the int8 weight planes are shared, never written. Clones for
// concurrent serving share them (4x less weight traffic than float32),
// and internal/ftpm aliases them directly into an mmap'd model file.

import (
	"fmt"
	"math"

	"github.com/ftpim/ftpim/internal/tensor"
)

// QLayer is one layer of the quantized inference path.
type QLayer interface {
	// Forward runs the layer in inference mode. Outputs live in
	// layer-owned workspaces, valid until the next call.
	Forward(x *tensor.Tensor) *tensor.Tensor
	// CloneQ returns an execution-independent copy: weight planes and
	// scales are shared (they are immutable), workspaces and scratch
	// are fresh.
	CloneQ() QLayer
}

// QuantizedNetwork is the int8 inference mirror of a Network. Build
// one with QuantizeNetwork (from a trained float model) or load one
// from an exported FTPM file via internal/ftpm.
type QuantizedNetwork struct {
	Layers []QLayer
}

// Forward runs the network in inference mode. The train flag exists
// only to satisfy the shared metrics.Forwarder signature; the
// quantized path has no training mode and panics if it is requested.
func (q *QuantizedNetwork) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		panic("nn: QuantizedNetwork is inference-only")
	}
	for _, l := range q.Layers {
		x = l.Forward(x)
	}
	return x
}

// NumParams returns the total stored parameter count (int8 weights,
// biases, and folded batch-norm affines) — the quantized analogue of
// Network.NumParams.
func (q *QuantizedNetwork) NumParams() int {
	n := 0
	var count func(l QLayer)
	count = func(l QLayer) {
		switch t := l.(type) {
		case *QConv2D:
			n += len(t.WQ) + len(t.Bias)
		case *QLinear:
			n += len(t.WQ) + len(t.Bias)
		case *QBatchNorm:
			n += len(t.Scale) + len(t.Shift)
		case *QBasicBlock:
			count(t.Conv1)
			count(t.BN1)
			count(t.Conv2)
			count(t.BN2)
		}
	}
	for _, l := range q.Layers {
		count(l)
	}
	return n
}

// CheckShape walks the layers statically from one c×h×w input sample
// and reports whether the network maps it to a row of classes scores:
// every layer must accept the shape the previous one produced, as its
// Forward demands. A network that passes runs Forward on such inputs
// without a shape panic; one that fails would panic or write out of
// range, which is why a server checks a loaded model against its
// dataset before the first request.
func (q *QuantizedNetwork) CheckShape(c, h, w, classes int) error {
	if c < 1 || h < 1 || w < 1 {
		return fmt.Errorf("nn: input %dx%dx%d is empty", c, h, w)
	}
	shape := []int{c, h, w} // per sample: (C, H, W) or (features)
	for i, l := range q.Layers {
		bad := func(want string) error {
			return fmt.Errorf("nn: layer %d (%T) takes %s, got per-sample shape %v", i, l, want, shape)
		}
		switch t := l.(type) {
		case *QConv2D:
			if len(shape) != 3 || shape[0] != t.InC {
				return bad(fmt.Sprintf("(%d,H,W)", t.InC))
			}
			oh, ow := t.outSize(shape[1], shape[2])
			if oh < 1 || ow < 1 {
				return bad(fmt.Sprintf("an input of at least %dx%d after padding %d", t.KH, t.KW, t.Pad))
			}
			shape = []int{t.OutC, oh, ow}
		case *QBatchNorm:
			if len(shape) != 3 || shape[0] != t.C {
				return bad(fmt.Sprintf("(%d,H,W)", t.C))
			}
		case *QBasicBlock:
			if len(shape) != 3 {
				return bad(fmt.Sprintf("(%d,H,W)", t.InC))
			}
			oc, oh, ow, err := t.outShape(shape[0], shape[1], shape[2])
			if err != nil {
				return fmt.Errorf("nn: layer %d: %w", i, err)
			}
			shape = []int{oc, oh, ow}
		case *QGlobalAvgPool:
			if len(shape) != 3 {
				return bad("(C,H,W)")
			}
			shape = []int{shape[0]}
		case *QFlatten:
			f := 1
			for _, d := range shape {
				f *= d
			}
			shape = []int{f}
		case *QLinear:
			if len(shape) != 1 || shape[0] != t.In {
				return bad(fmt.Sprintf("(%d)", t.In))
			}
			shape = []int{t.Out}
		case *QReLU, QIdentity, *QIdentity:
		default:
			return fmt.Errorf("nn: layer %d: unknown layer type %T", i, l)
		}
	}
	if len(shape) != 1 || shape[0] != classes {
		return fmt.Errorf("nn: network output per sample is %v, want (%d) class scores", shape, classes)
	}
	return nil
}

// Clone returns a copy safe for concurrent use: immutable weight
// planes and scales are shared, per-layer workspaces are fresh.
func (q *QuantizedNetwork) Clone() *QuantizedNetwork {
	out := &QuantizedNetwork{Layers: make([]QLayer, len(q.Layers))}
	for i, l := range q.Layers {
		out.Layers[i] = l.CloneQ()
	}
	return out
}

// QConv2D is the int8 convolution: weights (OutC, InC·KH·KW) as int8
// rows with per-row scales, input activations quantized per-tensor
// with the calibrated XScale. Per sample, the input is quantized into
// a zero-bordered plane (QuantizePadded), lowered patch-major
// (Im2RowS8), multiplied in int32 (GemmS8TB: m=OutC, k=InC·KH·KW,
// n=outArea), and dequantized with bias into the float output plane.
type QConv2D struct {
	InC, OutC   int
	KH, KW      int
	Stride, Pad int
	WQ          []int8    // (OutC, InC·KH·KW) row-major; may alias an mmap'd file
	WScale      []float32 // per-row weight scales, len OutC
	Bias        []float32 // len OutC, nil when the float layer had none
	XScale      float32   // calibrated per-tensor input scale

	maxAbs  float32 // calibration accumulator (QuantizeNetwork only)
	plane   []int8  // zero-bordered quantized input, InC×hp×wp (see planeSize)
	planeH  int     // input height and width plane's border was zeroed for
	planeW  int
	patches []int8  // outArea × k patch panel scratch
	acc     []int32 // OutC × outArea accumulator scratch
	ws      tensor.Workspace
}

// NewQConv2D builds a quantized conv layer from its stored planes
// (the FTPM loader's constructor). wq/wScale/bias are retained, not
// copied.
func NewQConv2D(inC, outC, kh, kw, stride, pad int, wq []int8, wScale, bias []float32, xScale float32) *QConv2D {
	return &QConv2D{
		InC: inC, OutC: outC, KH: kh, KW: kw, Stride: stride, Pad: pad,
		WQ: wq, WScale: wScale, Bias: bias, XScale: xScale,
	}
}

// Forward computes the int8 convolution for an NCHW batch.
func (l *QConv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(1) != l.InC {
		panic(fmt.Sprintf("nn: QConv2D input shape %v, want (N,%d,H,W)", x.Shape(), l.InC))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	outH, outW := l.outSize(h, w)
	area, in := outH*outW, l.InC*h*w
	out := l.ws.Get(0, n, l.OutC, outH, outW)
	xd, od := x.Data(), out.Data()
	for i := 0; i < n; i++ {
		acc := l.sample(xd[i*in:(i+1)*in], h, w, outH, outW)
		base := i * l.OutC * area
		for oc := 0; oc < l.OutC; oc++ {
			s, b := l.dequant(oc)
			arow := acc[oc*area : (oc+1)*area]
			orow := od[base+oc*area : base+(oc+1)*area]
			for j, v := range arow {
				orow[j] = float32(float32(v)*s) + b
			}
		}
	}
	return out
}

// outSize returns the output height and width for an h×w input.
func (l *QConv2D) outSize(h, w int) (outH, outW int) {
	return tensor.ConvOutSize(h, l.KH, l.Stride, l.Pad), tensor.ConvOutSize(w, l.KW, l.Stride, l.Pad)
}

// dequant returns output channel oc's dequantization scale and bias:
// its value is float32(acc)·s + b.
func (l *QConv2D) dequant(oc int) (s, b float32) {
	s = l.WScale[oc] * l.XScale
	if l.Bias != nil {
		b = l.Bias[oc]
	}
	return s, b
}

// planeSize returns the height and width of the zero-bordered plane
// for an h×w input: Pad on every side, and more zero rows or columns
// at the bottom or right where the last receptive field overhangs the
// input (ConvOutSize rounds toward zero, so a kernel larger than the
// padded input still makes one output).
func (l *QConv2D) planeSize(h, w int) (hp, wp int) {
	outH, outW := l.outSize(h, w)
	return max(h+2*l.Pad, (outH-1)*l.Stride+l.KH), max(w+2*l.Pad, (outW-1)*l.Stride+l.KW)
}

// inPlane returns the zero-bordered int8 input plane for an h×w input
// and its size. Callers overwrite its interior for every sample; the
// border is zeroed again only when the input geometry changes.
func (l *QConv2D) inPlane(h, w int) (plane []int8, hp, wp int) {
	hp, wp = l.planeSize(h, w)
	n := l.InC * hp * wp
	if cap(l.plane) < n {
		l.plane = make([]int8, n)
	} else if l.planeH != h || l.planeW != w {
		clear(l.plane[:n])
	}
	l.planeH, l.planeW = h, w
	return l.plane[:n], hp, wp
}

// sample quantizes one C·H·W input sample into the padded plane and
// runs the conv's GEMM on it.
func (l *QConv2D) sample(src []float32, h, w, outH, outW int) []int32 {
	plane, hp, wp := l.inPlane(h, w)
	tensor.QuantizePadded(plane, src, l.InC, h, w, hp, wp, l.Pad, l.XScale)
	return l.gemm(plane, hp, wp, outH, outW)
}

// gemm gathers the patches of the quantized hp×wp plane and multiplies
// them by the weight rows: the result holds output channel oc at
// position q in element oc·outH·outW + q.
func (l *QConv2D) gemm(plane []int8, hp, wp, outH, outW int) []int32 {
	k, area := l.InC*l.KH*l.KW, outH*outW
	if len(l.patches) < area*k {
		l.patches = make([]int8, area*k)
	}
	if len(l.acc) < l.OutC*area {
		l.acc = make([]int32, l.OutC*area)
	}
	patches, acc := l.patches[:area*k], l.acc[:l.OutC*area]
	tensor.Im2RowS8(patches, plane, l.InC, hp, wp, l.KH, l.KW, l.Stride, outH, outW)
	tensor.GemmS8TB(acc, l.WQ, patches, l.OutC, k, area)
	return acc
}

// CloneQ shares the weight planes and scales, fresh scratch.
func (l *QConv2D) CloneQ() QLayer {
	return NewQConv2D(l.InC, l.OutC, l.KH, l.KW, l.Stride, l.Pad,
		l.WQ, l.WScale, l.Bias, l.XScale)
}

// observe feeds one calibration batch's input into the running
// max-abs estimate.
func (l *QConv2D) observe(x *tensor.Tensor) {
	if m := tensor.MaxAbs(x.Data()); m > l.maxAbs {
		l.maxAbs = m
	}
}

// QLinear is the int8 fully connected layer: y = dequant(xq·WQᵀ) + b.
type QLinear struct {
	In, Out int
	WQ      []int8    // (Out, In) row-major; may alias an mmap'd file
	WScale  []float32 // per-row scales, len Out
	Bias    []float32 // len Out, nil when absent
	XScale  float32

	maxAbs float32
	xq     []int8
	acc    []int32
	ws     tensor.Workspace
}

// NewQLinear builds a quantized linear layer from its stored planes.
func NewQLinear(in, out int, wq []int8, wScale, bias []float32, xScale float32) *QLinear {
	return &QLinear{In: in, Out: out, WQ: wq, WScale: wScale, Bias: bias, XScale: xScale}
}

// Forward computes the int8 matmul for an (N, In) batch.
func (l *QLinear) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 2 || x.Dim(1) != l.In {
		panic(fmt.Sprintf("nn: QLinear input shape %v, want (N,%d)", x.Shape(), l.In))
	}
	n := x.Dim(0)
	out := l.ws.Get(0, n, l.Out)
	if len(l.xq) < n*l.In {
		l.xq = make([]int8, n*l.In)
	}
	if len(l.acc) < n*l.Out {
		l.acc = make([]int32, n*l.Out)
	}
	xs := l.XScale
	tensor.QuantizeLinear(l.xq[:n*l.In], x.Data(), xs)
	tensor.GemmS8TB(l.acc[:n*l.Out], l.xq[:n*l.In], l.WQ, n, l.In, l.Out)
	od := out.Data()
	for i := 0; i < n; i++ {
		arow := l.acc[i*l.Out : (i+1)*l.Out]
		orow := od[i*l.Out : (i+1)*l.Out]
		for j, v := range arow {
			orow[j] = float32(float32(v) * l.WScale[j] * xs)
			if l.Bias != nil {
				orow[j] += l.Bias[j]
			}
		}
	}
	return out
}

// CloneQ shares the weight planes and scales, fresh scratch.
func (l *QLinear) CloneQ() QLayer {
	return NewQLinear(l.In, l.Out, l.WQ, l.WScale, l.Bias, l.XScale)
}

func (l *QLinear) observe(x *tensor.Tensor) {
	if m := tensor.MaxAbs(x.Data()); m > l.maxAbs {
		l.maxAbs = m
	}
}

// QBatchNorm is inference batch norm folded to a per-channel affine:
// y = Scale[c]·x + Shift[c], with Scale = γ/√(var+ε) and
// Shift = β − mean·Scale precomputed from the float layer's running
// statistics at quantization time.
type QBatchNorm struct {
	C            int
	Scale, Shift []float32
	ws           tensor.Workspace
}

// NewQBatchNorm builds a folded batch-norm layer (slices retained).
func NewQBatchNorm(scale, shift []float32) *QBatchNorm {
	return &QBatchNorm{C: len(scale), Scale: scale, Shift: shift}
}

// Forward applies the per-channel affine over an NCHW batch.
func (l *QBatchNorm) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(1) != l.C {
		panic(fmt.Sprintf("nn: QBatchNorm input shape %v, want (N,%d,H,W)", x.Shape(), l.C))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	area := h * w
	out := l.ws.Get(0, x.Shape()...)
	xd, od := x.Data(), out.Data()
	for i := 0; i < n; i++ {
		for c := 0; c < l.C; c++ {
			s, b := l.Scale[c], l.Shift[c]
			base := (i*l.C + c) * area
			for j := 0; j < area; j++ {
				od[base+j] = float32(s*xd[base+j]) + b
			}
		}
	}
	return out
}

// CloneQ shares the affine, fresh workspace.
func (l *QBatchNorm) CloneQ() QLayer { return NewQBatchNorm(l.Scale, l.Shift) }

// QReLU clamps negatives to zero (float, inference only).
type QReLU struct {
	ws tensor.Workspace
}

// NewQReLU returns a quantized-path ReLU.
func NewQReLU() *QReLU { return &QReLU{} }

// Forward clamps negatives; explicit zeros because the workspace
// buffer carries the previous batch's values.
func (l *QReLU) Forward(x *tensor.Tensor) *tensor.Tensor {
	out := l.ws.Get(0, x.Shape()...)
	xd, od := x.Data(), out.Data()
	for i, v := range xd {
		if v > 0 {
			od[i] = v
		} else {
			od[i] = 0
		}
	}
	return out
}

// CloneQ returns a fresh ReLU.
func (l *QReLU) CloneQ() QLayer { return NewQReLU() }

// QGlobalAvgPool averages each channel spatially: (N,C,H,W) → (N,C).
type QGlobalAvgPool struct {
	ws tensor.Workspace
}

// NewQGlobalAvgPool returns a quantized-path global average pool.
func NewQGlobalAvgPool() *QGlobalAvgPool { return &QGlobalAvgPool{} }

// Forward averages spatially.
func (l *QGlobalAvgPool) Forward(x *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	area := h * w
	out := l.ws.Get(0, n, c)
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

// CloneQ returns a fresh pool.
func (l *QGlobalAvgPool) CloneQ() QLayer { return NewQGlobalAvgPool() }

// QFlatten reshapes (N, ...) to (N, rest) as a view.
type QFlatten struct {
	ws tensor.Workspace
}

// NewQFlatten returns a quantized-path flatten.
func NewQFlatten() *QFlatten { return &QFlatten{} }

// Forward flattens all but the batch dimension.
func (l *QFlatten) Forward(x *tensor.Tensor) *tensor.Tensor {
	n := x.Dim(0)
	return l.ws.View(0, x.Data(), n, x.Len()/n)
}

// CloneQ returns a fresh flatten.
func (l *QFlatten) CloneQ() QLayer { return NewQFlatten() }

// QBasicBlock is the quantized residual block: int8 convs, folded BN,
// float ReLUs and residual add, option-A shortcut exactly as the
// float BasicBlock computes it. Its Forward is one fused pass per
// sample (see the package comment); the block owns one float buffer,
// its output.
type QBasicBlock struct {
	Conv1 *QConv2D
	BN1   *QBatchNorm
	Conv2 *QConv2D
	BN2   *QBatchNorm

	InC, OutC, Stride int

	ws tensor.Workspace // slot 0: block output
}

// NewQBasicBlock assembles a quantized residual block.
func NewQBasicBlock(conv1 *QConv2D, bn1 *QBatchNorm, conv2 *QConv2D, bn2 *QBatchNorm, inC, outC, stride int) *QBasicBlock {
	return &QBasicBlock{
		Conv1: conv1, BN1: bn1, Conv2: conv2, BN2: bn2,
		InC: inC, OutC: outC, Stride: stride,
	}
}

// outShape checks that a c×h×w sample fits the block — its convs and
// batch norms chain and the second conv's output matches the shortcut
// — and returns the output shape. Forward panics on what this rejects;
// CheckShape reports it as an error.
func (b *QBasicBlock) outShape(c, h, w int) (outC, outH, outW int, err error) {
	c1, c2 := b.Conv1, b.Conv2
	if c != b.InC || c1.InC != b.InC || c1.OutC != b.BN1.C || c2.InC != b.BN1.C ||
		c2.OutC != b.BN2.C || b.BN2.C != b.OutC {
		return 0, 0, 0, fmt.Errorf("block %d→%d (conv %d→%d, bn %d, conv %d→%d, bn %d) on %d input channels",
			b.InC, b.OutC, c1.InC, c1.OutC, b.BN1.C, c2.InC, c2.OutC, b.BN2.C, c)
	}
	if b.Stride < 1 || b.InC > b.OutC {
		return 0, 0, 0, fmt.Errorf("block shortcut %d→%d at stride %d", b.InC, b.OutC, b.Stride)
	}
	h1, w1 := c1.outSize(h, w)
	outH, outW = c2.outSize(h1, w1)
	// The option-A shortcut keeps every Stride-th pixel (all of them
	// when the block keeps its shape, which implies Stride 1).
	hs, wsc := (h+b.Stride-1)/b.Stride, (w+b.Stride-1)/b.Stride
	if h1 < 1 || w1 < 1 || outH != hs || outW != wsc {
		return 0, 0, 0, fmt.Errorf("block convs map %dx%d to %dx%d then %dx%d, shortcut to %dx%d", h, w, h1, w1, outH, outW, hs, wsc)
	}
	return b.OutC, outH, outW, nil
}

// Forward runs the block: relu(BN2(Conv2(relu(BN1(Conv1 x)))) + shortcut),
// one sample at a time in two GEMM epilogues.
func (b *QBasicBlock) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: QBasicBlock input shape %v, want (N,%d,H,W)", x.Shape(), b.InC))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	_, outH, outW, err := b.outShape(x.Dim(1), h, w)
	if err != nil {
		panic("nn: QBasicBlock: " + err.Error())
	}
	c1, c2 := b.Conv1, b.Conv2
	h1, w1 := c1.outSize(h, w)
	area1, area := h1*w1, outH*outW
	in := b.InC * h * w
	// Conv2's plane: conv1's output, quantized, inside a Pad2 border.
	p2, hp2, wp2 := c2.inPlane(h1, w1)
	pad2 := c2.Pad
	q2 := tensor.NewQuantizer(c2.XScale)
	out := b.ws.Get(0, n, b.OutC, outH, outW)
	xd, od := x.Data(), out.Data()
	for i := 0; i < n; i++ {
		xi := xd[i*in : (i+1)*in]
		// Conv1 → BN1 → ReLU, quantized for conv2.
		acc := c1.sample(xi, h, w, h1, w1)
		for oc := 0; oc < c1.OutC; oc++ {
			cs, cb := c1.dequant(oc)
			bs, bb := b.BN1.Scale[oc], b.BN1.Shift[oc]
			arow := acc[oc*area1 : (oc+1)*area1]
			for y := 0; y < h1; y++ {
				o := (oc*hp2+y+pad2)*wp2 + pad2
				prow := p2[o : o+w1]
				for xx, a := range arow[y*w1 : (y+1)*w1] {
					v := float32(float32(a)*cs) + cb
					v = float32(bs*v) + bb
					if !(v > 0) {
						v = 0
					}
					prow[xx] = q2.Q(v)
				}
			}
		}
		// Conv2 → BN2 → + shortcut → ReLU into the block output. The
		// shortcut reads every Stride-th input pixel of channel oc, and
		// is zero on the channels it pads.
		acc = c2.gemm(p2, hp2, wp2, outH, outW)
		for oc := 0; oc < b.OutC; oc++ {
			cs, cb := c2.dequant(oc)
			bs, bb := b.BN2.Scale[oc], b.BN2.Shift[oc]
			arow := acc[oc*area : (oc+1)*area]
			orow := od[(i*b.OutC+oc)*area : (i*b.OutC+oc+1)*area]
			var sc []float32
			if oc < b.InC {
				sc = xi[oc*h*w : (oc+1)*h*w]
			}
			for y := 0; y < outH; y++ {
				for xx := 0; xx < outW; xx++ {
					j := y*outW + xx
					v := float32(float32(arow[j])*cs) + cb
					v = float32(bs*v) + bb
					var short float32
					if sc != nil {
						short = sc[(y*w+xx)*b.Stride]
					}
					v = float32(v + short)
					if v > 0 {
						orow[j] = v
					} else {
						orow[j] = 0
					}
				}
			}
		}
	}
	return out
}

// CloneQ deep-clones the block structure, sharing the weight planes.
func (b *QBasicBlock) CloneQ() QLayer {
	return NewQBasicBlock(
		b.Conv1.CloneQ().(*QConv2D), b.BN1.CloneQ().(*QBatchNorm),
		b.Conv2.CloneQ().(*QConv2D), b.BN2.CloneQ().(*QBatchNorm),
		b.InC, b.OutC, b.Stride)
}

// QIdentity passes its input through — the quantized image of layers
// that are a no-op at inference (Dropout).
type QIdentity struct{}

// NewQIdentity returns the identity layer.
func NewQIdentity() *QIdentity { return &QIdentity{} }

// Forward returns x.
func (QIdentity) Forward(x *tensor.Tensor) *tensor.Tensor { return x }

// CloneQ returns the identity layer.
func (QIdentity) CloneQ() QLayer { return QIdentity{} }

// QuantizeNetwork builds the int8 inference mirror of a trained
// network. Weights are quantized symmetrically per row (per output
// channel) immediately; activation scales are calibrated by running
// the calibration batches through the FLOAT network in inference mode
// and recording the max-abs input seen at every quantized layer —
// post-training calibration, no retraining. At least one batch is
// required; more batches tighten the scales.
//
// The float network is not mutated (inference-mode forwards only),
// but its layer workspaces are clobbered like any forward pass.
func QuantizeNetwork(net *Network, calib []*tensor.Tensor) (*QuantizedNetwork, error) {
	if net == nil {
		return nil, fmt.Errorf("nn: QuantizeNetwork: nil network")
	}
	if len(calib) == 0 {
		return nil, fmt.Errorf("nn: QuantizeNetwork needs at least one calibration batch")
	}
	fls := flattenLayers(net.Body.Layers)
	q := &QuantizedNetwork{Layers: make([]QLayer, len(fls))}
	for i, fl := range fls {
		ql, err := quantizeLayer(fl)
		if err != nil {
			return nil, err
		}
		q.Layers[i] = ql
	}
	for _, batch := range calib {
		x := batch
		for i, fl := range fls {
			x = calibStep(fl, q.Layers[i], x)
		}
	}
	for _, ql := range q.Layers {
		finalizeScales(ql)
	}
	return q, nil
}

// flattenLayers expands nested Sequentials into one flat layer list.
func flattenLayers(ls []Layer) []Layer {
	var out []Layer
	for _, l := range ls {
		if s, ok := l.(*Sequential); ok {
			out = append(out, flattenLayers(s.Layers)...)
			continue
		}
		out = append(out, l)
	}
	return out
}

// quantizeLayer maps one float layer to its quantized mirror,
// quantizing weights but leaving activation scales for calibration.
func quantizeLayer(fl Layer) (QLayer, error) {
	switch f := fl.(type) {
	case *Conv2D:
		return quantizeConv(f), nil
	case *Linear:
		wq := make([]int8, f.Out*f.In)
		ws := make([]float32, f.Out)
		tensor.QuantizeRows(wq, ws, f.Weight.W.Data(), f.Out, f.In)
		var bias []float32
		if f.Bias != nil {
			bias = append([]float32(nil), f.Bias.W.Data()...)
		}
		return NewQLinear(f.In, f.Out, wq, ws, bias, 0), nil
	case *BatchNorm2D:
		return foldBatchNorm(f), nil
	case *ReLU:
		return NewQReLU(), nil
	case *GlobalAvgPool2D:
		return NewQGlobalAvgPool(), nil
	case *Flatten:
		return NewQFlatten(), nil
	case *Dropout:
		return NewQIdentity(), nil
	case *BasicBlock:
		return NewQBasicBlock(
			quantizeConv(f.Conv1), foldBatchNorm(f.BN1),
			quantizeConv(f.Conv2), foldBatchNorm(f.BN2),
			f.inC, f.outC, f.stride), nil
	default:
		return nil, fmt.Errorf("nn: QuantizeNetwork: unsupported layer type %T", fl)
	}
}

func quantizeConv(f *Conv2D) *QConv2D {
	k := f.InC * f.KH * f.KW
	wq := make([]int8, f.OutC*k)
	ws := make([]float32, f.OutC)
	tensor.QuantizeRows(wq, ws, f.Weight.W.Data(), f.OutC, k)
	var bias []float32
	if f.Bias != nil {
		bias = append([]float32(nil), f.Bias.W.Data()...)
	}
	return NewQConv2D(f.InC, f.OutC, f.KH, f.KW, f.Stride, f.Pad, wq, ws, bias, 0)
}

// foldBatchNorm precomputes the inference affine from running stats.
func foldBatchNorm(bn *BatchNorm2D) *QBatchNorm {
	scale := make([]float32, bn.C)
	shift := make([]float32, bn.C)
	gd, bd := bn.Gamma.W.Data(), bn.Beta.W.Data()
	rm, rv := bn.RunningMean.Data(), bn.RunningVar.Data()
	for c := 0; c < bn.C; c++ {
		inv := float32(1 / math.Sqrt(float64(rv[c])+bn.Eps))
		scale[c] = gd[c] * inv
		shift[c] = bd[c] - float32(rm[c]*scale[c])
	}
	return NewQBatchNorm(scale, shift)
}

// calibStep advances one float layer in inference mode while feeding
// quantized-layer input observations. BasicBlock is walked internally
// so its second conv sees its true input.
func calibStep(fl Layer, ql QLayer, x *tensor.Tensor) *tensor.Tensor {
	switch f := fl.(type) {
	case *Conv2D:
		ql.(*QConv2D).observe(x)
	case *Linear:
		ql.(*QLinear).observe(x)
	case *BasicBlock:
		qb := ql.(*QBasicBlock)
		qb.Conv1.observe(x)
		h := f.Conv1.Forward(x, false)
		h = f.BN1.Forward(h, false)
		h = f.relu1.Forward(h, false)
		qb.Conv2.observe(h)
		h = f.Conv2.Forward(h, false)
		h = f.BN2.Forward(h, false)
		var short *tensor.Tensor
		if f.downsample {
			short = f.shortcutForward(x)
		} else {
			short = x
		}
		h.AddInPlace(short)
		return f.relu2.Forward(h, false)
	}
	return fl.Forward(x, false)
}

// finalizeScales converts accumulated max-abs observations into
// activation scales.
func finalizeScales(ql QLayer) {
	switch l := ql.(type) {
	case *QConv2D:
		l.XScale = tensor.ScaleFor(l.maxAbs)
	case *QLinear:
		l.XScale = tensor.ScaleFor(l.maxAbs)
	case *QBasicBlock:
		l.Conv1.XScale = tensor.ScaleFor(l.Conv1.maxAbs)
		l.Conv2.XScale = tensor.ScaleFor(l.Conv2.maxAbs)
	}
}
