package nn

import (
	"fmt"
	"math"
	"testing"

	"github.com/ftpim/ftpim/internal/tensor"
)

// In training a block's conv → batch norm → ReLU pairs run as one
// normalize pass after each conv (BatchNorm2D.forwardTrain), which also
// adds the shortcut, and one gated pass back (BatchNorm2D.backward),
// and the stem's batch norm and ReLU run the same code as separate
// layers. The reference below is the layer-by-layer training pass
// those replaced: a batch norm that stores x̂ and a ReLU that stores its
// mask, with their loops as they were, and the shortcut added with
// AddInPlace. Every output, running statistic, parameter gradient and
// input gradient must keep its bits.

// trainBN is the layer-by-layer batch-norm training pass on bn's
// parameters and running statistics.
type trainBN struct {
	bn     *BatchNorm2D
	xhat   []float32
	invStd []float32
}

// forward is the batch-norm training forward as one layer: it stores
// x̂ for backward and updates the running statistics.
func (r *trainBN) forward(x *tensor.Tensor) *tensor.Tensor {
	bn := r.bn
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	area := h * w
	cnt := n * area
	out := tensor.New(x.Shape()...)
	xd, od := x.Data(), out.Data()
	gd, bd := bn.Gamma.W.Data(), bn.Beta.W.Data()
	r.xhat = make([]float32, x.Len())
	r.invStd = make([]float32, bn.C)
	xh := r.xhat
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
		r.invStd[c] = inv
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
		unb := variance
		if cnt > 1 {
			unb = variance * float64(cnt) / float64(cnt-1)
		}
		rm, rv := bn.RunningMean.Data(), bn.RunningVar.Data()
		rm[c] = float32(float64((1-bn.Momentum)*float64(rm[c])) + float64(bn.Momentum*mean))
		rv[c] = float32(float64((1-bn.Momentum)*float64(rv[c])) + float64(bn.Momentum*unb))
	}
	return out
}

// backward is the batch-norm gradient as one layer, from the stored x̂.
func (r *trainBN) backward(dOut *tensor.Tensor) *tensor.Tensor {
	bn := r.bn
	n, h, w := dOut.Dim(0), dOut.Dim(2), dOut.Dim(3)
	area := h * w
	cnt := float64(n * area)
	dX := tensor.New(dOut.Shape()...)
	dd, xh, dxd := dOut.Data(), r.xhat, dX.Data()
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
		k := float64(gd[c]) * float64(r.invStd[c])
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

// trainReLU is the ReLU training pass as one layer, gating its backward
// by the mask its forward stored.
type trainReLU struct{ mask []uint32 }

func (r *trainReLU) forward(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(x.Shape()...)
	xd, od := x.Data(), out.Data()
	r.mask = make([]uint32, len(xd))
	for i, v := range xd {
		m := tensor.ReLUMask(v)
		od[i] = math.Float32frombits(math.Float32bits(v) & m)
		r.mask[i] = m
	}
	return out
}

func (r *trainReLU) backward(dOut *tensor.Tensor) *tensor.Tensor {
	dX := tensor.New(dOut.Shape()...)
	dxd := dX.Data()
	for i, v := range dOut.Data() {
		dxd[i] = math.Float32frombits(math.Float32bits(v) & r.mask[i])
	}
	return dX
}

// refTrain is the layer-by-layer training pass of a BasicBlock or of a
// conv → batch norm → ReLU stem, on the layer's own convs, parameters
// and running statistics.
type refTrain struct {
	layer    Layer
	bn1, bn2 trainBN
	r1, r2   trainReLU
}

func newRefTrain(l Layer) *refTrain {
	rt := &refTrain{layer: l}
	switch v := l.(type) {
	case *BasicBlock:
		rt.bn1.bn, rt.bn2.bn = v.BN1, v.BN2
	case *Sequential:
		rt.bn1.bn = v.Layers[1].(*BatchNorm2D)
	}
	return rt
}

func (rt *refTrain) forward(x *tensor.Tensor) *tensor.Tensor {
	if s, ok := rt.layer.(*Sequential); ok {
		h := s.Layers[0].Forward(x, true)
		return rt.r1.forward(rt.bn1.forward(h))
	}
	b := rt.layer.(*BasicBlock)
	b.lastInShape = append(b.lastInShape[:0], x.Shape()...)
	h := b.Conv1.Forward(x, true)
	h = rt.bn1.forward(h)
	h = rt.r1.forward(h)
	h = b.Conv2.Forward(h, true)
	h = rt.bn2.forward(h)
	h.AddInPlace(b.shortcut(x))
	return rt.r2.forward(h)
}

func (rt *refTrain) backward(dOut *tensor.Tensor) *tensor.Tensor {
	if s, ok := rt.layer.(*Sequential); ok {
		return s.Layers[0].Backward(rt.bn1.backward(rt.r1.backward(dOut)))
	}
	b := rt.layer.(*BasicBlock)
	d := rt.r2.backward(dOut)
	dBranch := rt.bn2.backward(d)
	dBranch = b.Conv2.Backward(dBranch)
	dBranch = rt.r1.backward(dBranch)
	dBranch = rt.bn1.backward(dBranch)
	dBranch = b.Conv1.Backward(dBranch)
	dShort := d
	if b.downsample {
		dShort = b.shortcutBackward(d)
	}
	dBranch.AddInPlace(dShort)
	return dBranch
}

// plantedInput returns n seeded c×h×w tensors holding, in every sample,
// each of the given values among normal ones.
func plantedInput(seed uint64, n, c, h, w int, planted []float32) *tensor.Tensor {
	x := tensor.New(n, c, h, w)
	rng := tensor.NewRNG(seed)
	tensor.FillNormal(x, rng, 0, 1)
	per := c * h * w
	d := x.Data()
	for i := 0; i < n; i++ {
		for _, v := range planted {
			d[i*per+int(rng.Uint64()%uint64(per))] = v
		}
	}
	return x
}

// firstBitDiff returns the first index at which got and want differ in
// bits, or -1. A NaN matches any NaN: of an operation on two NaNs, x86
// keeps the first source's, and which operand that is (the sign of the
// NaN that survives) is the compiler's register choice, which no
// contract fixes and no value that is not NaN can observe.
func firstBitDiff(got, want []float32) int {
	if len(got) != len(want) {
		return 0
	}
	for i, w := range want {
		g := got[i]
		if w != w && g != g {
			continue
		}
		if math.Float32bits(g) != math.Float32bits(w) {
			return i
		}
	}
	return -1
}

func TestFusedTrainingMatchesLayerByLayer(t *testing.T) {
	rng := tensor.NewRNG(41)
	finite := []float32{0, float32(math.Copysign(0, -1)), math.Float32frombits(1), math.Float32frombits(0x807fffff)}
	special := append([]float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}, finite...)
	cases := []struct {
		name    string
		c, h, w int
		layer   Layer
	}{
		{"identity_5_plane5x7", 5, 5, 7, NewBasicBlock("id5", 5, 5, 1, rng)},
		{"identity_3", 3, 8, 8, NewBasicBlock("id3", 3, 3, 1, rng)},
		{"identity_6", 6, 6, 6, NewBasicBlock("id6", 6, 6, 1, rng)},
		{"optionA_stride2_3to6_plane5x7", 3, 5, 7, NewBasicBlock("down3", 3, 6, 2, rng)},
		{"optionA_stride2_5to6", 5, 8, 8, NewBasicBlock("down5", 5, 6, 2, rng)},
		{"optionA_stride1_4to6", 4, 6, 6, NewBasicBlock("widen", 4, 6, 1, rng)},
		{"stem_3to5_plane5x7", 3, 5, 7, NewSequential(
			NewConv2D("stem", 3, 5, 3, 3, 1, 1, false, rng), NewBatchNorm2D("bn", 5), NewReLU())},
	}
	kinds := []struct {
		name     string
		x, dOut  []float32
		seedBase uint64
	}{
		{"finite", finite, finite, 100},
		{"special_dOut", finite, special, 200},
		{"special_x_and_dOut", special, special, 300},
	}
	for _, tc := range cases {
		seedBNs(tc.layer, rng)
		for _, workers := range []int{1, 2} {
			for _, kind := range kinds {
				t.Run(fmt.Sprintf("%s/workers%d/%s", tc.name, workers, kind.name), func(t *testing.T) {
					prev := tensor.SetWorkers(workers)
					defer tensor.SetWorkers(prev)
					fused := tc.layer.CloneLayer()
					ref := newRefTrain(tc.layer.CloneLayer())
					for _, n := range []int{1, 7, 32, 28} { // 28 after 32: a short last batch
						x := plantedInput(kind.seedBase+uint64(n), n, tc.c, tc.h, tc.w, kind.x)
						got := fused.Forward(x, true)
						want := ref.forward(x)
						if !got.SameShape(want) {
							t.Fatalf("batch %d: fused output shape %v, layer by layer %v", n, got.Shape(), want.Shape())
						}
						dOut := plantedInput(kind.seedBase+50+uint64(n), n, want.Dim(1), want.Dim(2), want.Dim(3), kind.dOut)
						gotDX := fused.Backward(dOut)
						wantDX := ref.backward(dOut)
						compare := func(what string, g, w []float32) {
							t.Helper()
							if i := firstBitDiff(g, w); i >= 0 {
								t.Fatalf("batch %d: %s element %d: fused %v (%#08x), layer by layer %v (%#08x)",
									n, what, i, g[i], math.Float32bits(g[i]), w[i], math.Float32bits(w[i]))
							}
						}
						compare("output", got.Data(), want.Data())
						compare("input gradient", gotDX.Data(), wantDX.Data())
						fn, rn := &Network{Body: NewSequential(fused)}, &Network{Body: NewSequential(ref.layer)}
						for i, bn := range fn.BatchNorms() {
							rbn := rn.BatchNorms()[i]
							compare(fmt.Sprintf("bn %d running mean", i), bn.RunningMean.Data(), rbn.RunningMean.Data())
							compare(fmt.Sprintf("bn %d running var", i), bn.RunningVar.Data(), rbn.RunningVar.Data())
						}
						for i, p := range fn.Params() {
							compare(p.Name+" gradient", p.Grad.Data(), rn.Params()[i].Grad.Data())
						}
					}
				})
			}
		}
	}
}
