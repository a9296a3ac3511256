// Package models builds the network architectures evaluated in the
// paper: the CIFAR-style ResNet family (ResNet-20 on CIFAR-10,
// ResNet-32 on CIFAR-100) plus small CNN/MLP baselines used by tests
// and examples. A width multiplier and input-size parameter let the
// same topology run at paper scale or at the reduced repro scale.
package models

import (
	"fmt"

	"github.com/ftpim/ftpim/internal/nn"
	"github.com/ftpim/ftpim/internal/tensor"
)

// ResNetConfig describes a CIFAR-style residual network: three stages
// of n BasicBlocks each with base widths {16, 32, 64}·WidthMult, giving
// depth 6n+2.
type ResNetConfig struct {
	Depth      int // 20, 32, 44, 56, ... (6n+2)
	Classes    int
	InChannels int
	WidthMult  float64 // 1.0 = paper scale; repro preset uses 0.25
	Seed       uint64
}

// ResNet20 returns the CIFAR-10 configuration from the paper.
func ResNet20(classes int) ResNetConfig {
	return ResNetConfig{Depth: 20, Classes: classes, InChannels: 3, WidthMult: 1, Seed: 42}
}

// ResNet32 returns the CIFAR-100 configuration from the paper.
func ResNet32(classes int) ResNetConfig {
	return ResNetConfig{Depth: 32, Classes: classes, InChannels: 3, WidthMult: 1, Seed: 42}
}

// Scaled returns a copy with a different width multiplier.
func (c ResNetConfig) Scaled(mult float64) ResNetConfig {
	c.WidthMult = mult
	return c
}

// widths returns the three stage widths after scaling (minimum 4). The
// product is converted before the add, so no compiler fuses the two
// into one rounding.
func (c ResNetConfig) widths() [3]int {
	base := [3]int{16, 32, 64}
	var out [3]int
	for i, b := range base {
		w := int(float64(float64(b)*c.WidthMult) + 0.5)
		if w < 4 {
			w = 4
		}
		out[i] = w
	}
	return out
}

// BuildResNet constructs the network. Depth must be 6n+2.
func BuildResNet(cfg ResNetConfig) *nn.Network {
	if (cfg.Depth-2)%6 != 0 || cfg.Depth < 8 {
		panic(fmt.Sprintf("models: ResNet depth %d is not of the form 6n+2", cfg.Depth))
	}
	if cfg.Classes <= 0 {
		panic("models: ResNet needs a positive class count")
	}
	if cfg.InChannels <= 0 {
		cfg.InChannels = 3
	}
	if cfg.WidthMult <= 0 {
		cfg.WidthMult = 1
	}
	n := (cfg.Depth - 2) / 6
	w := cfg.widths()
	rng := tensor.NewRNG(cfg.Seed).Stream("resnet-init")

	layers := []nn.Layer{
		nn.NewConv2D("conv1", cfg.InChannels, w[0], 3, 3, 1, 1, false, rng),
		nn.NewBatchNorm2D("bn1", w[0]),
		nn.NewReLU(),
	}
	inC := w[0]
	for stage := 0; stage < 3; stage++ {
		outC := w[stage]
		for b := 0; b < n; b++ {
			stride := 1
			if stage > 0 && b == 0 {
				stride = 2
			}
			name := fmt.Sprintf("stage%d.block%d", stage+1, b)
			layers = append(layers, nn.NewBasicBlock(name, inC, outC, stride, rng))
			inC = outC
		}
	}
	layers = append(layers,
		nn.NewGlobalAvgPool2D(),
		nn.NewLinear("fc", inC, cfg.Classes, rng),
	)
	return nn.NewNetwork(layers...)
}

// NumBlocks returns the residual block count for a 6n+2 depth.
func NumBlocks(depth int) int { return (depth - 2) / 6 * 3 }
