package ftpim

// One benchmark per paper artifact (Table I ×2 datasets, Table II,
// Figure 2 ×2 datasets) plus the A1–A3 ablations and the hot kernels.
// Experiment benches run at the "quick" preset so `go test -bench=.`
// finishes in minutes; the repro-preset numbers in EXPERIMENTS.md are
// produced by `ftpim all -preset repro`.

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/ftpim/ftpim/internal/core"
	"github.com/ftpim/ftpim/internal/data"
	"github.com/ftpim/ftpim/internal/experiments"
	"github.com/ftpim/ftpim/internal/fault"
	"github.com/ftpim/ftpim/internal/models"
	"github.com/ftpim/ftpim/internal/reram"
	"github.com/ftpim/ftpim/internal/tensor"
)

// mustB unwraps (value, error) in benchmark setup/loops; with a
// background context the core API only errors on cancellation.
func mustB[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// benchEnv builds a quick-preset environment with all models pre-
// trained outside the timed region, so the benchmark measures the
// experiment's evaluation protocol (the part that scales with runs ×
// rates), not one-off training.
func benchEnv(b *testing.B, warm func(e *experiments.Env)) *experiments.Env {
	b.Helper()
	e := experiments.NewEnv("quick", "", nil)
	warm(e)
	b.ResetTimer()
	return e
}

func warmTable1(e *experiments.Env, ds string) {
	mustB(e.Pretrained(bg, ds))
	for _, r := range e.Scale.TrainRates {
		mustB(e.OneShot(bg, ds, r))
		mustB(e.Progressive(bg, ds, r))
	}
}

// BenchmarkTable1CIFAR10 regenerates the CIFAR-10 half of Table I
// (defect accuracy vs testing stuck-at rate for baseline + FT models).
func BenchmarkTable1CIFAR10(b *testing.B) {
	e := benchEnv(b, func(e *experiments.Env) { warmTable1(e, "c10") })
	for i := 0; i < b.N; i++ {
		res := mustB(experiments.Table1(bg, e, "c10"))
		if len(res.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable1CIFAR100 regenerates the CIFAR-100 half of Table I.
func BenchmarkTable1CIFAR100(b *testing.B) {
	e := benchEnv(b, func(e *experiments.Env) { warmTable1(e, "c100") })
	for i := 0; i < b.N; i++ {
		res := mustB(experiments.Table1(bg, e, "c100"))
		if len(res.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2StabilityScore regenerates Table II (accuracy and
// Stability Score of FT models from pretrained and ADMM-pruned
// backbones).
func BenchmarkTable2StabilityScore(b *testing.B) {
	e := benchEnv(b, func(e *experiments.Env) {
		sp := e.Scale.Sparsities[len(e.Scale.Sparsities)-1]
		mustB(e.Pretrained(bg, "c100"))
		mustB(e.PrunedADMM(bg, "c100", sp))
		for _, r := range []float64{0.01, 0.05, 0.1} {
			mustB(e.OneShot(bg, "c100", r))
			mustB(e.Progressive(bg, "c100", r))
			mustB(e.PrunedFT(bg, "c100", sp, r, false))
			mustB(e.PrunedFT(bg, "c100", sp, r, true))
		}
	})
	for i := 0; i < b.N; i++ {
		res := mustB(experiments.Table2(bg, e))
		if len(res.Sections) != 2 {
			b.Fatal("bad table2")
		}
	}
}

// BenchmarkFigure2PrunedFragility regenerates both panels of Figure 2
// (dense vs pruned accuracy under faults, no FT training).
func BenchmarkFigure2PrunedFragility(b *testing.B) {
	e := benchEnv(b, func(e *experiments.Env) {
		for _, ds := range []string{"c10", "c100"} {
			mustB(e.Pretrained(bg, ds))
			for _, sp := range e.Scale.Sparsities {
				mustB(e.PrunedMagnitude(bg, ds, sp))
				mustB(e.PrunedADMM(bg, ds, sp))
			}
		}
	})
	for i := 0; i < b.N; i++ {
		for _, ds := range []string{"c10", "c100"} {
			if res := mustB(experiments.Figure2(bg, e, ds)); len(res.Series) == 0 {
				b.Fatal("empty figure")
			}
		}
	}
}

// BenchmarkAblationLadder runs the A1 progressive-ladder-depth study.
func BenchmarkAblationLadder(b *testing.B) {
	e := benchEnv(b, func(e *experiments.Env) { mustB(e.Pretrained(bg, "c10")) })
	for i := 0; i < b.N; i++ {
		// Use a fresh env per iteration is wrong (training cached);
		// the cached path measures the evaluation protocol.
		rows := mustB(experiments.AblationLadder(bg, e, "c10", 0.1, 2))
		if len(rows) != 2 {
			b.Fatal("bad ladder ablation")
		}
	}
}

// BenchmarkAblationResample runs the A2 per-epoch vs per-batch study.
func BenchmarkAblationResample(b *testing.B) {
	e := benchEnv(b, func(e *experiments.Env) { mustB(e.Pretrained(bg, "c10")) })
	for i := 0; i < b.N; i++ {
		res := mustB(experiments.AblationResample(bg, e, "c10", 0.1))
		if res.Rate != 0.1 {
			b.Fatal("bad resample ablation")
		}
	}
}

// BenchmarkAblationCrossbarVsWeight runs the A3 weight-level vs
// circuit-level fault model validation.
func BenchmarkAblationCrossbarVsWeight(b *testing.B) {
	e := benchEnv(b, func(e *experiments.Env) { mustB(e.Pretrained(bg, "c10")) })
	opts := reram.MapOptions{TileRows: 32, TileCols: 32, Levels: 16, Gmin: 0.1, Gmax: 10}
	for i := 0; i < b.N; i++ {
		res := mustB(experiments.AblationCrossbar(bg, e, "c10", 0.02, opts))
		if res.CleanAcc <= 0 {
			b.Fatal("bad crossbar ablation")
		}
	}
}

// --- kernel-level benchmarks -------------------------------------------

// BenchmarkFaultInjection measures one stuck-at injection + undo pass
// over a ResNet-20-scale weight set at Psa=0.01.
func BenchmarkFaultInjection(b *testing.B) {
	net := models.BuildResNet(models.ResNet20(10).Scaled(0.25))
	inj := fault.NewInjector(fault.ChenModel(), core.WeightTensors(net))
	rng := tensor.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := inj.Inject(rng, 0.01)
		l.Undo()
	}
}

// BenchmarkResNetForward measures one inference batch through the
// repro-scale ResNet-20.
func BenchmarkResNetForward(b *testing.B) {
	net := models.BuildResNet(models.ResNet20(10).Scaled(0.25))
	x := tensor.New(32, 3, 12, 12)
	tensor.FillNormal(x, tensor.NewRNG(1), 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(x, false)
	}
}

// BenchmarkTrainEpoch measures one training epoch (forward + backward
// + SGD) of the repro-scale ResNet-20 on 320 synthetic images.
func BenchmarkTrainEpoch(b *testing.B) {
	cfg := data.SynthConfig{
		Classes: 10, TrainPer: 32, TestPer: 1,
		Channels: 3, Size: 12, Basis: 16, CoefNoise: 0.2,
		NoiseStd: 0.4, ShiftMax: 1, JitterStd: 0.1, Seed: 3,
	}
	train, _ := data.Generate(cfg)
	net := models.BuildResNet(models.ResNet20(10).Scaled(0.25))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustB(core.Train(bg, net, train, core.Config{
			Epochs: 1, Batch: 32, LR: 0.01, Momentum: 0.9, WeightDecay: 5e-4, Seed: uint64(i) + 1,
		}))
	}
}

// BenchmarkDefectEval measures the paper's defect-accuracy protocol
// (inject → evaluate → undo) for a single run on 120 test images.
func BenchmarkDefectEval(b *testing.B) {
	cfg := data.SynthConfig{
		Classes: 10, TrainPer: 1, TestPer: 12,
		Channels: 3, Size: 12, Basis: 16, CoefNoise: 0.2,
		NoiseStd: 0.4, ShiftMax: 1, JitterStd: 0.1, Seed: 4,
	}
	_, test := data.Generate(cfg)
	net := models.BuildResNet(models.ResNet20(10).Scaled(0.25))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustB(core.EvalDefect(bg, net, test, 0.01, core.DefectEval{Runs: 1, Batch: 128, Seed: uint64(i)}))
	}
}

// benchWorkerCounts returns the worker axis for the parallel-vs-serial
// benchmarks: 1 (the serial reference), intermediate powers of two,
// and the machine's core count. On machines with fewer than 4 cores
// the axis still ends at 4 so the parallel path's scheduling overhead
// is measured (oversubscribed) rather than skipped.
func benchWorkerCounts() []int {
	top := runtime.NumCPU()
	if top < 4 {
		top = 4
	}
	counts := []int{1}
	for w := 2; w < top; w *= 2 {
		counts = append(counts, w)
	}
	return append(counts, top)
}

// BenchmarkEvalDefectParallel measures the Monte-Carlo defect-eval
// protocol (the paper's inner loop: clone → inject → evaluate → undo ×
// runs) at increasing worker counts. The workers=1 case is the exact
// legacy serial path; all cases produce bit-identical Summaries, so
// the ratio between them is pure speedup.
func BenchmarkEvalDefectParallel(b *testing.B) {
	s := experiments.ScaleFor("quick")
	net := models.BuildResNet(models.ResNetConfig{
		Depth: s.DepthC10, Classes: s.C10.Classes, InChannels: 3,
		WidthMult: s.Width, Seed: s.Seed,
	})
	_, test := data.Generate(s.C10)
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			cfg := core.DefectEval{Runs: 8, Batch: 64, Seed: 1, Workers: w}
			for i := 0; i < b.N; i++ {
				mustB(core.EvalDefect(bg, net, test, 0.02, cfg))
			}
		})
	}
}

// BenchmarkEvalDefectSweepParallel measures a full quick-preset Table-I
// defect sweep (all testing rates) serial vs parallel — the acceptance
// workload for the concurrency layer.
func BenchmarkEvalDefectSweepParallel(b *testing.B) {
	s := experiments.ScaleFor("quick")
	net := models.BuildResNet(models.ResNetConfig{
		Depth: s.DepthC10, Classes: s.C10.Classes, InChannels: 3,
		WidthMult: s.Width, Seed: s.Seed,
	})
	_, test := data.Generate(s.C10)
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			cfg := core.DefectEval{Runs: s.DefectRuns, Batch: 64, Seed: 1, Workers: w}
			for i := 0; i < b.N; i++ {
				mustB(core.EvalDefectSweep(bg, net, test, s.TestRates, cfg))
			}
		})
	}
}

// BenchmarkMatMulParallel measures the row-sharded GEMM kernel against
// the serial reference on a shape above the shard threshold.
func BenchmarkMatMulParallel(b *testing.B) {
	rng := tensor.NewRNG(11)
	a, bb := tensor.New(256, 256), tensor.New(256, 256)
	tensor.FillNormal(a, rng, 0, 1)
	tensor.FillNormal(bb, rng, 0, 1)
	out := tensor.New(256, 256)
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			old := tensor.SetWorkers(w)
			defer tensor.SetWorkers(old)
			for i := 0; i < b.N; i++ {
				tensor.MatMulInto(out, a, bb)
			}
		})
	}
}

// BenchmarkConvForwardParallel measures the batch-sharded im2col conv
// forward (one ResNet inference batch) against the serial loop.
func BenchmarkConvForwardParallel(b *testing.B) {
	net := models.BuildResNet(models.ResNet20(10).Scaled(0.25))
	x := tensor.New(32, 3, 12, 12)
	tensor.FillNormal(x, tensor.NewRNG(1), 0, 1)
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			old := tensor.SetWorkers(w)
			defer tensor.SetWorkers(old)
			for i := 0; i < b.N; i++ {
				net.Forward(x, false)
			}
		})
	}
}

// BenchmarkCrossbarMatVec measures the circuit-level analog dot
// product on a 128×128 differential tile pair.
func BenchmarkCrossbarMatVec(b *testing.B) {
	rng := tensor.NewRNG(5)
	w := tensor.New(128, 128)
	tensor.FillNormal(w, rng, 0, 1)
	m := reram.MapMatrix(w, reram.DefaultMapOptions())
	x := make([]float32, 128)
	for i := range x {
		x[i] = rng.Normal(0, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MatVec(x)
	}
}

// BenchmarkMarchTest measures fault detection over a 128×128 array.
func BenchmarkMarchTest(b *testing.B) {
	rng := tensor.NewRNG(6)
	x := reram.NewCrossbar(128, 128, 16, 0.1, 10)
	x.InjectFaults(rng, fault.ChenModel(), 0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reram.MarchTest(x, 1, rng)
	}
}
