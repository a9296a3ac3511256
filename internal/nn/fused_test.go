package nn

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/ftpim/ftpim/internal/tensor"
)

// At inference a conv followed by batch norm and a ReLU runs as one
// fused conv whose epilogue applies the batch norm, the residual and
// the ReLU (Conv2D.fusedForward), and a Sequential hands the fused
// steps' activations to each other in zero-bordered batch-row planes. It must
// store the bits of the separate layers, Conv2D, BatchNorm2D and ReLU
// Forward(x, false), and the block's AddInPlace, run one at a time.

// seedBN gives bn non-trivial running statistics, γ (of both signs)
// and β. A fresh batch norm (mean 0, var 1, γ 1, β 0) would hide a
// reassociated transform: (x−0)·1·inv + 0 has the same bits in any
// order.
func seedBN(bn *BatchNorm2D, rng *tensor.RNG) {
	m, v := bn.Stats()
	g, b := bn.Gamma.W.Data(), bn.Beta.W.Data()
	for c := 0; c < bn.C; c++ {
		m.Data()[c] = float32(0.5 * rng.NormFloat64())
		v.Data()[c] = float32(0.05 + 3*rng.Float64())
		g[c] = float32(1 + 0.7*rng.NormFloat64())
		b[c] = float32(0.5 * rng.NormFloat64())
	}
}

// specialInput returns n seeded c×h×w images holding, in every
// sample, ±0, ±Inf, NaN and subnormals among normal values.
func specialInput(seed uint64, n, c, h, w int) *tensor.Tensor {
	x := tensor.New(n, c, h, w)
	rng := tensor.NewRNG(seed)
	tensor.FillNormal(x, rng, 0, 1)
	specials := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.NaN()), math.Float32frombits(1), math.Float32frombits(0x807fffff)}
	per := c * h * w
	d := x.Data()
	for i := 0; i < n; i++ {
		for _, v := range specials {
			d[i*per+int(rng.Uint64()%uint64(per))] = v
		}
	}
	return x
}

// layerByLayer is the reference inference forward: every conv, batch
// norm and ReLU as its own layer, and each block's residual added
// with AddInPlace.
func layerByLayer(l Layer, x *tensor.Tensor) *tensor.Tensor {
	switch v := l.(type) {
	case *Sequential:
		for _, c := range v.Layers {
			x = layerByLayer(c, x)
		}
		return x
	case *BasicBlock:
		h := v.Conv1.Forward(x, false)
		h = v.BN1.Forward(h, false)
		h = NewReLU().Forward(h, false)
		h = v.Conv2.Forward(h, false)
		h = v.BN2.Forward(h, false)
		h.AddInPlace(v.shortcut(x))
		return NewReLU().Forward(h, false)
	}
	return l.Forward(x, false)
}

// seedBNs seeds every batch norm under l.
func seedBNs(l Layer, rng *tensor.RNG) {
	for _, bn := range (&Network{Body: NewSequential(l)}).BatchNorms() {
		seedBN(bn, rng)
	}
}

// trunkNet returns stem → identity block → stride-2 block → identity
// block → pool → linear: every plane handoff of the inference trunk
// (stem into a block, block into a stride-2 block's phase planes, a
// stride-2 block into an identity block, the last block's dense output
// into the pool).
func trunkNet(rng *tensor.RNG) *Sequential {
	return NewSequential(
		NewConv2D("stem", 3, 4, 3, 3, 1, 1, false, rng), NewBatchNorm2D("bn", 4), NewReLU(),
		NewBasicBlock("b1", 4, 4, 1, rng), NewBasicBlock("b2", 4, 8, 2, rng),
		NewBasicBlock("b3", 8, 8, 1, rng), NewGlobalAvgPool2D(), NewLinear("fc", 8, 10, rng))
}

// TestFusedInferenceMatchesLayerByLayer runs each block on its own with
// a dense batch (read by conv1 where it lies, its output dense) and
// Sequentials whose steps hand batch-row planes to each other, at
// batches whose rows fit one unit and batches (33 and 128) whose rows
// are cut into runs of samples.
func TestFusedInferenceMatchesLayerByLayer(t *testing.T) {
	rng := tensor.NewRNG(31)
	cases := []struct {
		name    string
		c, h, w int
		layer   Layer
	}{
		{"stem_3to5", 3, 12, 12, NewSequential(
			NewConv2D("stem", 3, 5, 3, 3, 1, 1, false, rng), NewBatchNorm2D("bn", 5), NewReLU())},
		{"identity_5", 5, 12, 12, NewBasicBlock("id", 5, 5, 1, rng)},
		{"identity_3_odd_plane", 3, 9, 7, NewBasicBlock("id_odd", 3, 3, 1, rng)},
		{"optionA_stride2_3to7", 3, 12, 12, NewBasicBlock("down", 3, 7, 2, rng)},
		{"optionA_stride2_odd_plane", 5, 7, 9, NewBasicBlock("down_odd", 5, 9, 2, rng)},
		{"optionA_stride1_4to6", 4, 6, 6, NewBasicBlock("widen", 4, 6, 1, rng)},
		{"stem_then_blocks", 3, 12, 12, NewSequential(
			NewConv2D("stem2", 3, 4, 3, 3, 1, 1, false, rng), NewBatchNorm2D("bn2", 4), NewReLU(),
			NewBasicBlock("b1", 4, 4, 1, rng), NewBasicBlock("b2", 4, 8, 2, rng),
			NewBasicBlock("b3", 8, 16, 2, rng), NewGlobalAvgPool2D(), NewFlatten(), NewLinear("fc", 16, 10, rng))},
		{"trunk_identity_stride2_identity", 3, 12, 12, trunkNet(rng)},
		{"fused_convs_stride2", 3, 9, 12, NewSequential(
			NewConv2D("c1", 3, 4, 3, 3, 1, 1, false, rng), NewBatchNorm2D("bn1", 4), NewReLU(),
			NewConv2D("c2", 4, 6, 3, 3, 2, 1, false, rng), NewBatchNorm2D("bn2", 6), NewReLU(),
			NewGlobalAvgPool2D(), NewLinear("fc", 6, 5, rng))},
		{"trunk_odd_plane", 3, 9, 7, trunkNet(rng)},
	}
	for _, tc := range cases {
		seedBNs(tc.layer, rng)
		ref := tc.layer.CloneLayer()
		for _, n := range []int{1, 7, 16, 33, 128} {
			x := specialInput(uint64(1000+n), n, tc.c, tc.h, tc.w)
			want := layerByLayer(ref, x).Clone()
			for _, workers := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/batch%d/workers%d", tc.name, n, workers), func(t *testing.T) {
					prev := tensor.SetWorkers(workers)
					defer tensor.SetWorkers(prev)
					got := tc.layer.Forward(x, false)
					if !got.SameShape(want) {
						t.Fatalf("fused output shape %v, layer by layer %v", got.Shape(), want.Shape())
					}
					gd, wd := got.Data(), want.Data()
					for i := range wd {
						if math.Float32bits(gd[i]) != math.Float32bits(wd[i]) {
							t.Fatalf("element %d: fused %v (%#08x), layer by layer %v (%#08x)",
								i, gd[i], math.Float32bits(gd[i]), wd[i], math.Float32bits(wd[i]))
						}
					}
				})
			}
		}
	}
}

// TestFusedInferenceFallsBack keeps the layers a fused conv cannot
// replace running one at a time: a conv with a bias, and a batch norm
// whose channel count is not the conv's, which must still panic with
// the batch norm's own shape error.
func TestFusedInferenceFallsBack(t *testing.T) {
	rng := tensor.NewRNG(32)
	biased := NewSequential(NewConv2D("c", 3, 4, 3, 3, 1, 1, true, rng), NewBatchNorm2D("bn", 4), NewReLU())
	seedBNs(biased, rng)
	x := specialInput(7, 2, 3, 6, 6)
	want := layerByLayer(biased.CloneLayer(), x)
	if got := biased.Forward(x, false); !got.Equal(want) {
		t.Fatal("biased conv → BN → ReLU differs from its layers")
	}
	mismatched := NewSequential(NewConv2D("c", 3, 4, 3, 3, 1, 1, false, rng), NewBatchNorm2D("bn", 5), NewReLU())
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "BatchNorm2D input shape") {
			t.Fatalf("mismatched batch norm: got panic %v, want the batch norm's shape error", r)
		}
	}()
	mismatched.Forward(x, false)
}

// TestInferencePlanesStayClean: a forward over a batch of NaN and ±Inf
// leaves nothing in the trunk's reused planes that a later forward
// reads. Junk in a border or past the last sample would reach the
// outputs of the next forward, so after the junk batch a clean batch
// must give the bits a fresh clone gives on it, including when the
// clean batch is smaller than the junk one.
func TestInferencePlanesStayClean(t *testing.T) {
	rng := tensor.NewRNG(33)
	base := trunkNet(rng)
	seedBNs(base, rng)
	junk := func(n int) *tensor.Tensor {
		x := tensor.New(n, 3, 12, 12)
		specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 1e30}
		for i, d := 0, x.Data(); i < len(d); i++ {
			d[i] = specials[i%len(specials)]
		}
		return x
	}
	for _, workers := range []int{1, 2} {
		for _, sizes := range [][2]int{{1, 1}, {7, 7}, {128, 128}, {128, 7}, {7, 1}, {16, 128}, {128, 16}, {1, 128}} {
			t.Run(fmt.Sprintf("workers%d/junk%d_clean%d", workers, sizes[0], sizes[1]), func(t *testing.T) {
				prev := tensor.SetWorkers(workers)
				defer tensor.SetWorkers(prev)
				clean := specialInput(uint64(77+sizes[1]), sizes[1], 3, 12, 12)
				want := base.CloneLayer().Forward(clean, false).Clone()
				net := base.CloneLayer()
				net.Forward(junk(sizes[0]), false)
				got := net.Forward(clean, false)
				gd, wd := got.Data(), want.Data()
				for i := range wd {
					if math.Float32bits(gd[i]) != math.Float32bits(wd[i]) {
						t.Fatalf("element %d: after a junk batch %v, fresh clone %v", i, gd[i], wd[i])
					}
				}
			})
		}
	}
}

// resnet20x025 returns the layers of the repro preset's ResNet-20 ×0.25
// (models.BuildResNet): a 3→4 stem, three stages of three blocks at 4,
// 8 and 16 channels whose first block in stages 2 and 3 has stride 2,
// the pool and a 16→10 linear.
func resnet20x025(rng *tensor.RNG) *Sequential {
	layers := []Layer{NewConv2D("conv1", 3, 4, 3, 3, 1, 1, false, rng), NewBatchNorm2D("bn1", 4), NewReLU()}
	inC := 4
	for stage, outC := range []int{4, 8, 16} {
		for b := 0; b < 3; b++ {
			stride := 1
			if stage > 0 && b == 0 {
				stride = 2
			}
			layers = append(layers, NewBasicBlock(fmt.Sprintf("stage%d.block%d", stage+1, b), inC, outC, stride, rng))
			inC = outC
		}
	}
	return NewSequential(append(layers, NewGlobalAvgPool2D(), NewLinear("fc", inC, 10, rng))...)
}

// TestInferenceSamplesIndependent: the samples of a batch never meet in
// the trunk. A batch with one sample of NaN, ±Inf and 1e30 (the first,
// a middle or the last) must leave every other sample with the logits
// a batch-1 forward gives it, bit for bit. A border or a column between
// two samples that held anything but +0 would carry the junk into a
// neighbour.
func TestInferenceSamplesIndependent(t *testing.T) {
	rng := tensor.NewRNG(34)
	nets := []struct {
		name string
		net  *Sequential
	}{{"trunk", trunkNet(rng)}, {"resnet20x0.25", resnet20x025(rng)}}
	const maxN, per = 128, 3 * 12 * 12
	clean := tensor.New(maxN, 3, 12, 12)
	tensor.FillNormal(clean, rng, 0, 1)
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 1e30}
	for _, tc := range nets {
		seedBNs(tc.net, rng)
		alone := make([][]float32, maxN) // each sample's batch-1 logits
		one := tc.net.CloneLayer()
		for i := range alone {
			x := tensor.New(1, 3, 12, 12)
			copy(x.Data(), clean.Data()[i*per:])
			alone[i] = append([]float32(nil), one.Forward(x, false).Data()...)
		}
		for _, workers := range []int{1, 2} {
			net := tc.net.CloneLayer()
			for _, n := range []int{2, 16, 128} {
				for _, j := range []int{0, n / 2, n - 1} {
					t.Run(fmt.Sprintf("%s/workers%d/batch%d/junk%d", tc.name, workers, n, j), func(t *testing.T) {
						prev := tensor.SetWorkers(workers)
						defer tensor.SetWorkers(prev)
						x := tensor.New(n, 3, 12, 12)
						copy(x.Data(), clean.Data())
						for k, d := 0, x.Data()[j*per:(j+1)*per]; k < len(d); k++ {
							d[k] = specials[k%len(specials)]
						}
						got := net.Forward(x, false).Data()
						classes := len(got) / n
						for i := 0; i < n; i++ {
							if i == j {
								continue
							}
							for c, v := range got[i*classes : (i+1)*classes] {
								if w := alone[i][c]; math.Float32bits(v) != math.Float32bits(w) {
									t.Fatalf("sample %d logit %d: %v beside the junk sample, %v alone", i, c, v, w)
								}
							}
						}
					})
				}
			}
		}
	}
}
