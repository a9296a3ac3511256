//go:build !race

package ftpim

// Allocation-regression test for the defect-evaluation hot path: once
// the injector scratch and layer workspaces are warm, each Monte-Carlo
// run (inject → evaluate → undo, exactly the EvalDefect serial loop
// body) must stay within 2 heap allocations. Excluded under -race (the
// race runtime changes allocation behavior); tensor workers are pinned
// to 1 because a sharded kernel call allocates its body's closure and
// its pool job (internal/tensor's TestConvGemmPoolWarmAllocs bounds
// that cost).

import (
	"testing"

	"github.com/ftpim/ftpim/internal/core"
	"github.com/ftpim/ftpim/internal/data"
	"github.com/ftpim/ftpim/internal/fault"
	"github.com/ftpim/ftpim/internal/metrics"
	"github.com/ftpim/ftpim/internal/models"
	"github.com/ftpim/ftpim/internal/tensor"
)

func TestWarmDefectRunAllocs(t *testing.T) {
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)

	cfg := data.SynthConfig{
		Classes: 5, TrainPer: 4, TestPer: 8,
		Channels: 3, Size: 8, Basis: 10, CoefNoise: 0.1,
		NoiseStd: 0.3, Seed: 11,
	}
	_, test := data.Generate(cfg)
	net := models.BuildSimpleCNN(models.SimpleCNNConfig{InChannels: 3, Width: 4, Classes: 5, Seed: 2})

	// Replicate the EvalDefect serial loop body (internal/core/eval.go)
	// around one long-lived injector, as EvalDefect itself holds one
	// across all runs of a call.
	inj := fault.NewInjector(fault.ChenModel(), core.WeightTensors(net))
	const psa = 0.05
	run := 0
	step := func() {
		lesion := inj.InjectRun(9, run, psa)
		metrics.Evaluate(net, test, 64)
		lesion.Undo()
		run++
	}
	// Warm-up: grow the lesion undo capacity and layer workspaces. The
	// flip count is random per run, so a generous warm-up makes later
	// capacity growth rare enough to stay inside the budget.
	for i := 0; i < 20; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(30, step); avg > 2 {
		t.Fatalf("warm defect-eval run allocates %.1f/op, budget is 2", avg)
	}
}

// TestWarmScenarioRunAllocs extends the 2-allocation budget to every
// registered fault scenario: the scenario abstraction must not cost
// the hot path anything. Persistent scenarios run the InjectRun loop;
// transient ones run the per-step loop (one lesion per forward pass,
// the warm inner loop of transient evaluation).
func TestWarmScenarioRunAllocs(t *testing.T) {
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)

	cfg := data.SynthConfig{
		Classes: 5, TrainPer: 4, TestPer: 8,
		Channels: 3, Size: 8, Basis: 10, CoefNoise: 0.1,
		NoiseStd: 0.3, Seed: 11,
	}
	_, test := data.Generate(cfg)
	net := models.BuildSimpleCNN(models.SimpleCNNConfig{InChannels: 3, Width: 4, Classes: 5, Seed: 2})

	for _, spec := range fault.Names() {
		t.Run(spec, func(t *testing.T) {
			sc := fault.MustParse(spec)
			inj := sc.NewInjector(core.WeightTensors(net))
			const psa = 0.05
			run, step := 0, 0
			iter := func() {
				var lesion *fault.Lesion
				if sc.Transient() {
					lesion = inj.InjectStep(9, 0, step, psa)
					step++
				} else {
					lesion = inj.InjectRun(9, run, psa)
					run++
				}
				metrics.Evaluate(net, test, 64)
				lesion.Undo()
			}
			for i := 0; i < 20; i++ {
				iter()
			}
			if avg := testing.AllocsPerRun(30, iter); avg > 2 {
				t.Fatalf("warm %s run allocates %.1f/op, budget is 2", spec, avg)
			}
		})
	}
}
