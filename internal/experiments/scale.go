// Package experiments defines the paper's experiments (Table I,
// Table II, Figure 2, plus ablations) as declarative configurations,
// and provides the orchestration to train, cache, and evaluate every
// model they need.
//
// Three presets scale the same experiment definitions:
//
//   - "paper": the paper's setup (CIFAR-scale data, full-width
//     ResNet-20/32, 160 epochs, 100 defect runs). Real CIFAR binaries
//     are used when present under data/cifar10 and data/cifar100;
//     otherwise a CIFAR-shaped synthetic task is generated. Practical
//     only with a lot of patience on one CPU core.
//   - "repro": the default scaled-down reproduction this repository's
//     EXPERIMENTS.md is generated with — the same topologies at quarter
//     width, 12×12 synthetic images, reduced epochs and defect runs.
//   - "quick": a seconds-scale configuration used by benchmarks and
//     integration tests.
//   - "smoke": the smallest runnable configuration — sub-second, used
//     by determinism and CI smoke tests.
package experiments

import (
	"fmt"

	"github.com/ftpim/ftpim/internal/data"
)

// Scale holds every size knob of the experiment suite.
type Scale struct {
	Name string

	// Datasets (ignored for "paper" preset when real CIFAR is present).
	C10, C100 data.SynthConfig

	// Models.
	Width     float64 // ResNet width multiplier
	DepthC10  int
	DepthC100 int

	// Training recipe.
	PretrainEpochs     int
	FTEpochs           int // one-shot FT budget
	ProgRungs          int // max ladder length
	ProgEpochsPerStage int
	Batch              int
	LR                 float64
	FTLR               float64 // retraining LR (paper restarts at 0.1; scaled runs prefer lower)
	Momentum           float64
	WeightDecay        float64
	Aug                data.Augment

	// Pruning.
	ADMMEpochs     int
	FinetuneEpochs int
	ADMMRho        float64

	// Evaluation.
	DefectRuns int
	TestRates  []float64 // Table I / Figure 2 sweep
	TrainRates []float64 // Table I training targets
	SSRates    []float64 // Table II rates
	Sparsities []float64 // Figure 2 pruning ratios

	// Workers bounds the goroutines used by the defect-evaluation
	// Monte-Carlo loop (0 = all cores, 1 = serial). Results are
	// bit-identical at any setting, so it is excluded from model cache
	// keys.
	Workers int

	Seed uint64
}

// PaperTestRates is the exact Table I testing-rate axis.
var PaperTestRates = []float64{0, 0.001, 0.0015, 0.002, 0.003, 0.005, 0.01, 0.02, 0.03, 0.05, 0.075, 0.1, 0.15, 0.2}

// PaperTrainRates is the exact Table I training-target axis.
var PaperTrainRates = []float64{0.005, 0.01, 0.02, 0.05, 0.1, 0.15, 0.2}

// ScaleFor returns the Scale for a named preset. An unknown name is a
// programmer error and panics; names from outside the program go
// through Validate first.
func ScaleFor(preset string) Scale {
	s, err := scaleFor(preset)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return s
}

// Validate reports an error unless preset names a Scale and dataset is
// "c10" or "c100" — the names ScaleFor and Env.Dataset accept. The CLI
// checks its flags with it, and a worker the job it was sent.
func Validate(preset, dataset string) error {
	if _, err := scaleFor(preset); err != nil {
		return err
	}
	if dataset != "c10" && dataset != "c100" {
		return fmt.Errorf("unknown dataset %q (want c10 or c100)", dataset)
	}
	return nil
}

func scaleFor(preset string) (Scale, error) {
	switch preset {
	case "paper":
		return Scale{
			Name: "paper",
			C10: data.SynthConfig{
				Classes: 10, TrainPer: 5000, TestPer: 1000,
				Channels: 3, Size: 32, Basis: 48, CoefNoise: 0.25,
				NoiseStd: 0.4, ShiftMax: 3, JitterStd: 0.15, Seed: 1001,
			},
			C100: data.SynthConfig{
				Classes: 100, TrainPer: 500, TestPer: 100,
				Channels: 3, Size: 32, Basis: 72, CoefNoise: 0.08,
				NoiseStd: 0.5, ShiftMax: 3, JitterStd: 0.15, Seed: 2002,
			},
			Width: 1, DepthC10: 20, DepthC100: 32,
			PretrainEpochs: 160, FTEpochs: 160,
			ProgRungs: 4, ProgEpochsPerStage: 160,
			Batch: 128, LR: 0.1, FTLR: 0.1, Momentum: 0.9, WeightDecay: 1e-4,
			Aug:        data.Augment{Flip: true, ShiftMax: 4},
			ADMMEpochs: 160, FinetuneEpochs: 160, ADMMRho: 1e-3,
			DefectRuns: 100,
			TestRates:  PaperTestRates,
			TrainRates: PaperTrainRates,
			SSRates:    []float64{0.01, 0.02},
			Sparsities: []float64{0.4, 0.7},
			Seed:       42,
		}, nil
	case "repro":
		return Scale{
			Name: "repro",
			C10: data.SynthConfig{
				Classes: 10, TrainPer: 150, TestPer: 40,
				Channels: 3, Size: 12, Basis: 26, CoefNoise: 0.25,
				NoiseStd: 0.45, ShiftMax: 2, JitterStd: 0.15, Seed: 1001,
			},
			C100: data.SynthConfig{
				Classes: 100, TrainPer: 30, TestPer: 4,
				Channels: 3, Size: 12, Basis: 40, CoefNoise: 0.08,
				NoiseStd: 0.5, ShiftMax: 2, JitterStd: 0.15, Seed: 2002,
			},
			Width: 0.25, DepthC10: 20, DepthC100: 32,
			PretrainEpochs: 16, FTEpochs: 12,
			ProgRungs: 3, ProgEpochsPerStage: 6,
			Batch: 32, LR: 0.08, FTLR: 0.04, Momentum: 0.9, WeightDecay: 5e-4,
			Aug:        data.Augment{Flip: true, ShiftMax: 1},
			ADMMEpochs: 10, FinetuneEpochs: 8, ADMMRho: 5e-3,
			DefectRuns: 8,
			TestRates:  PaperTestRates,
			TrainRates: PaperTrainRates,
			SSRates:    []float64{0.01, 0.02},
			Sparsities: []float64{0.4, 0.7},
			Seed:       42,
		}, nil
	case "smoke":
		return Scale{
			Name: "smoke",
			C10: data.SynthConfig{
				Classes: 4, TrainPer: 12, TestPer: 6,
				Channels: 3, Size: 8, Basis: 8, CoefNoise: 0.1,
				NoiseStd: 0.3, ShiftMax: 1, JitterStd: 0.1, Seed: 1001,
			},
			C100: data.SynthConfig{
				Classes: 8, TrainPer: 8, TestPer: 3,
				Channels: 3, Size: 8, Basis: 10, CoefNoise: 0.08,
				NoiseStd: 0.4, ShiftMax: 1, JitterStd: 0.1, Seed: 2002,
			},
			Width: 0.2, DepthC10: 8, DepthC100: 8,
			PretrainEpochs: 2, FTEpochs: 2,
			ProgRungs: 2, ProgEpochsPerStage: 1,
			Batch: 8, LR: 0.08, FTLR: 0.04, Momentum: 0.9, WeightDecay: 5e-4,
			Aug:        data.Augment{Flip: true, ShiftMax: 1},
			ADMMEpochs: 2, FinetuneEpochs: 2, ADMMRho: 5e-3,
			DefectRuns: 2,
			TestRates:  []float64{0, 0.02, 0.1},
			TrainRates: []float64{0.1},
			SSRates:    []float64{0.02},
			Sparsities: []float64{0.5},
			Seed:       42,
		}, nil
	case "quick":
		return Scale{
			Name: "quick",
			C10: data.SynthConfig{
				Classes: 6, TrainPer: 30, TestPer: 12,
				Channels: 3, Size: 8, Basis: 12, CoefNoise: 0.1,
				NoiseStd: 0.3, ShiftMax: 1, JitterStd: 0.1, Seed: 1001,
			},
			C100: data.SynthConfig{
				Classes: 12, TrainPer: 15, TestPer: 6,
				Channels: 3, Size: 8, Basis: 14, CoefNoise: 0.08,
				NoiseStd: 0.4, ShiftMax: 1, JitterStd: 0.1, Seed: 2002,
			},
			Width: 0.2, DepthC10: 8, DepthC100: 14,
			PretrainEpochs: 5, FTEpochs: 4,
			ProgRungs: 2, ProgEpochsPerStage: 2,
			Batch: 16, LR: 0.08, FTLR: 0.04, Momentum: 0.9, WeightDecay: 5e-4,
			Aug:        data.Augment{Flip: true, ShiftMax: 1},
			ADMMEpochs: 3, FinetuneEpochs: 3, ADMMRho: 5e-3,
			DefectRuns: 3,
			TestRates:  []float64{0, 0.005, 0.02, 0.05, 0.1, 0.2},
			TrainRates: []float64{0.02, 0.1},
			SSRates:    []float64{0.02, 0.05},
			Sparsities: []float64{0.5},
			Seed:       42,
		}, nil
	}
	return Scale{}, fmt.Errorf("unknown preset %q (want paper, repro, quick, or smoke)", preset)
}
