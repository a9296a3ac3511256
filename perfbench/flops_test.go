package main

import (
	"testing"

	"github.com/ftpim/ftpim/internal/models"
	"github.com/ftpim/ftpim/internal/nn"
	"github.com/ftpim/ftpim/internal/tensor"
)

// resnet20 builds the repro architecture (ResNet-20 at width 0.25:
// stage widths 4, 8, 16) untrained.
func resnet20() *nn.Network {
	return models.BuildResNet(models.ResNetConfig{Depth: 20, Classes: 10, InChannels: 3, WidthMult: 0.25, Seed: 1})
}

// Stage FLOPs for ResNet-20×0.25 on 12×12 inputs, by hand (2 FLOPs per
// multiply-add, 3×3 convs, option-A shortcuts carry no FLOPs):
//
//	stem   conv 3→4 at 12×12:              2·4·27·144            =  31104
//	stage1 6 convs 4→4 at 12×12:           6·2·4·36·144          = 248832
//	stage2 4→8 stride 2 to 6×6:            2·8·36·36   =  20736
//	       5 convs 8→8 at 6×6:             5·2·8·72·36 = 207360  → 228096
//	stage3 8→16 stride 2 to 3×3:           2·16·72·9   =  20736
//	       5 convs 16→16 at 3×3:           5·2·16·144·9 = 207360 → 228096
//	head   linear 16→10:                   2·16·10               =    320
func TestStageFLOPs(t *testing.T) {
	flops, convs, hw := geometry(resnet20(), 12, 12)
	want := []float64{31104, 248832, 228096, 228096, 320}
	for i := range want {
		if flops[i] != want[i] {
			t.Errorf("%s: %v FLOPs, want %v", stageNames[i], flops[i], want[i])
		}
	}
	wantConv := []convShape{{3, 4, 3, 1, 1}, {4, 4, 3, 1, 1}, {8, 8, 3, 1, 1}, {16, 16, 3, 1, 1}, {}}
	wantHW := []int{12, 12, 6, 3, 0}
	for i := range wantConv {
		if convs[i] != wantConv[i] || hw[i] != wantHW[i] {
			t.Errorf("%s: probe conv %+v at %d, want %+v at %d", stageNames[i], convs[i], hw[i], wantConv[i], wantHW[i])
		}
	}
}

// The int8 mirror of a network groups into the same stages.
func TestQuantizedStagesMatchFloat(t *testing.T) {
	net := resnet20()
	x := tensor.New(2, 3, 12, 12)
	tensor.FillNormal(x, tensor.NewRNG(1), 0, 1)
	q, err := nn.QuantizeNetwork(net, []*tensor.Tensor{x})
	if err != nil {
		t.Fatal(err)
	}
	f, qs := floatStages(net), quantStages(q)
	for i := range f {
		if nf, nq := f[i][1]-f[i][0], qs[i][1]-qs[i][0]; i > 0 && i < 4 && nf != nq {
			t.Errorf("%s: %d float layers, %d int8 layers", stageNames[i], nf, nq)
		}
	}
	for si, r := range qs[1:4] {
		for _, l := range q.Layers[r[0]:r[1]] {
			if _, ok := l.(*nn.QBasicBlock); !ok {
				t.Errorf("%s holds a %T", stageNames[si+1], l)
			}
		}
	}
}
