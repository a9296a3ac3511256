package nn

import (
	"fmt"
	"math"
	"testing"

	"github.com/ftpim/ftpim/internal/tensor"
)

// The layer-by-layer int8 forward, kept as the bitwise reference for
// the fused conv and block passes in quant.go. Each conv quantizes its
// whole input sample (QuantizeLinear), gathers patches with a bounds
// test per byte (im2RowS8Ref), multiplies (GemmS8TB) and dequantizes
// into a float plane; batch norm, the ReLUs and the residual add then
// each make one more float pass over a buffer of their own. Layers the
// fusion left alone (pooling, flatten, linear, identity) run their own
// Forward on a clone.

// refForward runs q layer by layer on x.
func refForward(q *QuantizedNetwork, x *tensor.Tensor) *tensor.Tensor {
	for _, l := range q.Layers {
		x = refLayer(l, x)
	}
	return x
}

func refLayer(l QLayer, x *tensor.Tensor) *tensor.Tensor {
	switch t := l.(type) {
	case *QConv2D:
		return refConv(t, x)
	case *QBatchNorm:
		return refBN(t, x)
	case *QReLU:
		return refReLU(x)
	case *QBasicBlock:
		return refBlock(t, x)
	}
	return l.CloneQ().Forward(x)
}

func refConv(l *QConv2D, x *tensor.Tensor) *tensor.Tensor {
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	outH := tensor.ConvOutSize(h, l.KH, l.Stride, l.Pad)
	outW := tensor.ConvOutSize(w, l.KW, l.Stride, l.Pad)
	outArea := outH * outW
	k := l.InC * l.KH * l.KW
	plane := l.InC * h * w
	out := tensor.New(n, l.OutC, outH, outW)
	xq := make([]int8, plane)
	patches := make([]int8, outArea*k)
	acc := make([]int32, l.OutC*outArea)
	xd, od := x.Data(), out.Data()
	xs := l.XScale
	for i := 0; i < n; i++ {
		tensor.QuantizeLinear(xq, xd[i*plane:(i+1)*plane], xs)
		im2RowS8Ref(patches, xq, l.InC, h, w, l.KH, l.KW, l.Stride, l.Pad, outH, outW)
		tensor.GemmS8TB(acc, l.WQ, patches, l.OutC, k, outArea)
		base := i * l.OutC * outArea
		for oc := 0; oc < l.OutC; oc++ {
			s := l.WScale[oc] * xs
			var b float32
			if l.Bias != nil {
				b = l.Bias[oc]
			}
			arow := acc[oc*outArea : (oc+1)*outArea]
			orow := od[base+oc*outArea : base+(oc+1)*outArea]
			for j, v := range arow {
				orow[j] = float32(float32(v)*s) + b
			}
		}
	}
	return out
}

// im2RowS8Ref gathers patches from an unpadded plane, writing the 0
// byte for every tap outside it.
func im2RowS8Ref(dst, src []int8, c, h, w, kh, kw, stride, pad, outH, outW int) {
	k := c * kh * kw
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			row := dst[(oy*outW+ox)*k : (oy*outW+ox+1)*k]
			d := 0
			for ci := 0; ci < c; ci++ {
				plane := src[ci*h*w : (ci+1)*h*w]
				for ky := 0; ky < kh; ky++ {
					iy := oy*stride - pad + ky
					for kx := 0; kx < kw; kx++ {
						ix := ox*stride - pad + kx
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							row[d] = plane[iy*w+ix]
						} else {
							row[d] = 0
						}
						d++
					}
				}
			}
		}
	}
}

func refBN(l *QBatchNorm, x *tensor.Tensor) *tensor.Tensor {
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	area := h * w
	out := tensor.New(x.Shape()...)
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

func refReLU(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(x.Shape()...)
	od := out.Data()
	for i, v := range x.Data() {
		if v > 0 {
			od[i] = v
		} else {
			od[i] = 0
		}
	}
	return out
}

func refBlock(b *QBasicBlock, x *tensor.Tensor) *tensor.Tensor {
	h := refConv(b.Conv1, x)
	h = refBN(b.BN1, h)
	h = refReLU(h)
	h = refConv(b.Conv2, h)
	h = refBN(b.BN2, h)
	short := x
	if b.Stride != 1 || b.InC != b.OutC {
		short = refShortcut(b, x)
	}
	h.AddInPlace(short)
	return refReLU(h)
}

// refShortcut is the option-A projection: stride-s spatial subsample
// into a zeroed tensor with OutC channels.
func refShortcut(b *QBasicBlock, x *tensor.Tensor) *tensor.Tensor {
	n, hIn, wIn := x.Dim(0), x.Dim(2), x.Dim(3)
	hOut := (hIn + b.Stride - 1) / b.Stride
	wOut := (wIn + b.Stride - 1) / b.Stride
	out := tensor.New(n, b.OutC, hOut, wOut)
	xd, od := x.Data(), out.Data()
	for i := 0; i < n; i++ {
		for c := 0; c < b.InC; c++ {
			inBase := (i*b.InC + c) * hIn * wIn
			outBase := (i*b.OutC + c) * hOut * wOut
			for y := 0; y < hOut; y++ {
				for xcol := 0; xcol < wOut; xcol++ {
					od[outBase+y*wOut+xcol] = xd[inBase+y*b.Stride*wIn+xcol*b.Stride]
				}
			}
		}
	}
	return out
}

// requireBitsEqual fails unless got and want hold the same float bits.
func requireBitsEqual(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: output[%d] = %v, reference %v", what, i, got[i], want[i])
		}
	}
}

// oddQNet is a stride-2 ResNet over odd-sized 3×11×9 inputs, with one
// block per stage at widths 5, 7 and 11.
func oddQNet(tb testing.TB, seed uint64) *QuantizedNetwork {
	return resNetQNet(tb, seed, 3, 11, 9, 1, 6, [3]int{5, 7, 11})
}

func normalInput(seed uint64, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	tensor.FillNormal(x, tensor.NewRNG(seed), 0, 1)
	return x
}

// TestQuantizedForwardMatchesOracle pins the fused forward to the
// layer-by-layer reference bit for bit: on the repro ResNet at several
// batch sizes, on the test network with a biased conv and flatten,
// and on the odd-sized stride-2 network with its input size
// changing between calls, which re-lays the padded planes' borders.
func TestQuantizedForwardMatchesOracle(t *testing.T) {
	repro := reproQNet(t, 61)
	for _, n := range []int{1, 7, 32} {
		x := normalInput(uint64(n), n, 3, 12, 12)
		requireBitsEqual(t, fmt.Sprintf("repro batch %d", n), repro.Forward(x, false).Data(), refForward(repro, x).Data())
	}
	net, calib := quantTestNet(t, 62)
	q, err := QuantizeNetwork(net, []*tensor.Tensor{calib})
	if err != nil {
		t.Fatal(err)
	}
	x := normalInput(5, 6, 3, 12, 12)
	requireBitsEqual(t, "test net", q.Forward(x, false).Data(), refForward(q, x).Data())

	odd := oddQNet(t, 63)
	for i, hw := range [][2]int{{11, 9}, {7, 13}, {11, 9}, {1, 1}, {11, 9}} {
		x := normalInput(uint64(10+i), 3, 3, hw[0], hw[1])
		requireBitsEqual(t, fmt.Sprintf("odd net at %dx%d", hw[0], hw[1]), odd.Forward(x, false).Data(), refForward(odd, x).Data())
	}
}

// TestQuantizedBatchComposition: a sample's scores do not depend on
// the batch it rides in — a forward of N stacked images equals each
// image run alone, which is what lets a server answer a request from
// whatever micro-batch carried it.
func TestQuantizedBatchComposition(t *testing.T) {
	nets := []struct {
		name    string
		q       *QuantizedNetwork
		c, h, w int
	}{
		{"repro", reproQNet(t, 71), 3, 12, 12},
		{"odd stride-2", oddQNet(t, 72), 3, 11, 9},
	}
	for _, tc := range nets {
		t.Run(tc.name, func(t *testing.T) {
			stride := tc.c * tc.h * tc.w
			x := normalInput(73, 128, tc.c, tc.h, tc.w)
			alone := make([][]float32, 128)
			var one tensor.Tensor
			for i := range alone {
				one.SetView(x.Data()[i*stride:(i+1)*stride], 1, tc.c, tc.h, tc.w)
				alone[i] = append([]float32(nil), tc.q.Forward(&one, false).Data()...)
			}
			classes := len(alone[0])
			for _, n := range []int{1, 2, 3, 5, 17, 32, 128} {
				var xs tensor.Tensor
				xs.SetView(x.Data()[:n*stride], n, tc.c, tc.h, tc.w)
				out := tc.q.Forward(&xs, false).Data()
				for i := 0; i < n; i++ {
					requireBitsEqual(t, fmt.Sprintf("batch %d image %d", n, i), out[i*classes:(i+1)*classes], alone[i])
				}
			}
		})
	}
}

// fuzzQNet builds an int8 network straight from random planes: a conv
// (kernel k, stride, pad) from inC to w1 channels, batch norm, ReLU, a
// residual block from w1 to w2 channels at blockStride (3×3 or 1×1
// convs), an identity-shortcut block at w2, global pooling and a
// linear head; bias sets whether the convs and the head have biases. Scales put weights near unit
// gain and clamp the largest activations.
func fuzzQNet(r *tensor.RNG, inC, w1, w2, k, stride, pad, blockStride, blockK int, bias bool, classes int) *QuantizedNetwork {
	s8 := func(n int) []int8 {
		v := make([]int8, n)
		for i := range v {
			v[i] = int8(int(r.Uint64()%255) - tensor.QuantClamp)
		}
		return v
	}
	f32 := func(n int, lo, hi float64) []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = float32(lo + (hi-lo)*r.Float64())
		}
		return v
	}
	conv := func(in, out, k, stride, pad int, bias bool) *QConv2D {
		kk := in * k * k
		var b []float32
		if bias {
			b = f32(out, -1, 1)
		}
		gain := 1 / (tensor.QuantClamp * math.Sqrt(float64(kk)))
		return NewQConv2D(in, out, k, k, stride, pad, s8(out*kk), f32(out, 0.5*gain, 1.5*gain), b,
			float32((1+2*r.Float64())/tensor.QuantClamp))
	}
	bn := func(c int) *QBatchNorm { return NewQBatchNorm(f32(c, -1.5, 1.5), f32(c, -1, 1)) }
	block := func(in, out, stride int) *QBasicBlock {
		return NewQBasicBlock(conv(in, out, blockK, stride, blockK/2, bias), bn(out),
			conv(out, out, blockK, 1, blockK/2, bias), bn(out), in, out, stride)
	}
	var fcBias []float32
	if bias {
		fcBias = f32(classes, -1, 1)
	}
	return &QuantizedNetwork{Layers: []QLayer{
		conv(inC, w1, k, stride, pad, bias), bn(w1), NewQReLU(),
		block(w1, w2, blockStride), block(w2, w2, 1),
		NewQGlobalAvgPool(), NewQFlatten(),
		NewQLinear(w2, classes, s8(classes*w2), f32(classes, 0.001, 0.01), fcBias, float32(0.02)),
	}}
}

// FuzzQuantizedForwardVsOracle: on fuzz-drawn networks — widths 1–17,
// stride 1 or 2, pad 0 or 1, kernels 1–3, sizes 1–15, with and without
// bias, batch 1–9 — the fused forward equals the layer-by-layer
// reference bit for bit.
func FuzzQuantizedForwardVsOracle(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(5), uint8(12), uint8(12), uint8(2), uint8(0b1010), uint8(4))
	f.Add(uint64(2), uint8(0), uint8(0), uint8(1), uint8(1), uint8(0), uint8(0b0101), uint8(0))
	f.Add(uint64(3), uint8(16), uint8(16), uint8(7), uint8(14), uint8(1), uint8(0b1111), uint8(8))
	f.Add(uint64(4), uint8(6), uint8(9), uint8(9), uint8(5), uint8(2), uint8(0b0011), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, w1Raw, w2Raw, hRaw, wRaw, kRaw, flags, nRaw uint8) {
		w1 := 1 + int(w1Raw)%17
		w2 := w1 + int(w2Raw)%(18-w1) // the option-A shortcut only pads channels
		h, w := 1+int(hRaw)%15, 1+int(wRaw)%15
		k := 1 + int(kRaw)%3
		stride, pad := 1+int(flags&1), int(flags>>1&1)
		bias := flags&4 != 0
		blockStride := 1 + int(flags>>3&1)
		blockK := 3
		if flags&16 != 0 {
			blockK = 1
		}
		n := 1 + int(nRaw)%9
		r := tensor.NewRNG(seed)
		q := fuzzQNet(r, 3, w1, w2, k, stride, pad, blockStride, blockK, bias, 5)
		if err := q.CheckShape(3, h, w, 5); err != nil {
			return // the conv's kernel does not fit the padded input
		}
		x := normalInput(seed^0x5DEECE66D, n, 3, h, w)
		requireBitsEqual(t, "fused vs reference", q.Forward(x, false).Data(), refForward(q, x).Data())
	})
}
