package experiments

import (
	"context"
	"fmt"

	"github.com/ftpim/ftpim/internal/core"
	"github.com/ftpim/ftpim/internal/fault"
	"github.com/ftpim/ftpim/internal/metrics"
	"github.com/ftpim/ftpim/internal/nn"
	"github.com/ftpim/ftpim/internal/report"
	"github.com/ftpim/ftpim/internal/reram"
	"github.com/ftpim/ftpim/internal/tensor"
)

// LadderAblationRow reports one ladder-depth variant.
type LadderAblationRow struct {
	Rungs     int
	CleanAcc  float64 // percent
	DefectAcc float64 // percent, at the target rate
	Ladder    []float64
}

// AblationLadder studies how the progressive ladder length affects the
// final model at a fixed target rate (DESIGN.md A1). Rungs=1 is
// one-shot training. On cancellation the rows completed so far are
// returned together with ctx's error.
func AblationLadder(ctx context.Context, e *Env, ds string, target float64, maxRungs int) ([]LadderAblationRow, error) {
	train, test := e.Dataset(ds)
	ev := e.DefectEval()
	var rows []LadderAblationRow
	for rungs := 1; rungs <= maxRungs; rungs++ {
		rungs := rungs
		key := fmt.Sprintf("abl-ladder-%s-%g-%d", ds, target, rungs)
		net, err := e.cached(key, ds, func(net *nn.Network) error {
			base, err := e.Pretrained(ctx, ds)
			if err != nil {
				return err
			}
			mustRestore(net, base)
			cfg := e.trainCfg(key, e.Scale.FTEpochs, e.Scale.FTLR, e.Scale.Seed+hash64(key))
			ladder := core.Ladder(target, rungs)
			// Split the same total budget across stages for a
			// compute-fair comparison.
			per := e.Scale.FTEpochs / len(ladder)
			if per < 1 {
				per = 1
			}
			_, err = core.ProgressiveFT(ctx, net, train, cfg, ladder, per)
			return err
		})
		if err != nil {
			return rows, err
		}
		sum, err := core.EvalDefect(ctx, net, test, target, ev)
		if err != nil {
			return rows, err
		}
		rows = append(rows, LadderAblationRow{
			Rungs:     rungs,
			CleanAcc:  core.EvalClean(net, test, ev.Batch) * 100,
			DefectAcc: sum.Mean * 100,
			Ladder:    core.Ladder(target, rungs),
		})
	}
	return rows, nil
}

// ResampleAblationResult compares per-epoch vs per-batch fault
// resampling during FT training (DESIGN.md A2).
type ResampleAblationResult struct {
	Rate              float64
	PerEpochCleanAcc  float64
	PerEpochDefectAcc float64
	PerBatchCleanAcc  float64
	PerBatchDefectAcc float64
}

// AblationResample runs the A2 ablation at the given training rate.
func AblationResample(ctx context.Context, e *Env, ds string, rate float64) (ResampleAblationResult, error) {
	train, test := e.Dataset(ds)
	ev := e.DefectEval()
	res := ResampleAblationResult{Rate: rate}

	variant := func(perBatch bool) (clean, defect float64, err error) {
		key := fmt.Sprintf("abl-resample-%s-%g-%v", ds, rate, perBatch)
		net, err := e.cached(key, ds, func(net *nn.Network) error {
			base, err := e.Pretrained(ctx, ds)
			if err != nil {
				return err
			}
			mustRestore(net, base)
			cfg := e.trainCfg(key, e.Scale.FTEpochs, e.Scale.FTLR, e.Scale.Seed+hash64(key))
			cfg.PerBatch = perBatch
			_, err = core.OneShotFT(ctx, net, train, cfg, rate)
			return err
		})
		if err != nil {
			return 0, 0, err
		}
		sum, err := core.EvalDefect(ctx, net, test, rate, ev)
		if err != nil {
			return 0, 0, err
		}
		return core.EvalClean(net, test, ev.Batch) * 100, sum.Mean * 100, nil
	}
	var err error
	if res.PerEpochCleanAcc, res.PerEpochDefectAcc, err = variant(false); err != nil {
		return res, err
	}
	if res.PerBatchCleanAcc, res.PerBatchDefectAcc, err = variant(true); err != nil {
		return res, err
	}
	return res, nil
}

// CrossbarAblationResult validates the weight-level fault model
// against the circuit-level crossbar simulation (DESIGN.md A3).
type CrossbarAblationResult struct {
	Psa            float64
	CleanAcc       float64 // percent, digital weights
	QuantizedAcc   float64 // percent, crossbar-quantized, fault-free
	WeightLevelAcc float64 // percent, weight-level stuck-at injection
	CircuitAcc     float64 // percent, per-cell crossbar fault maps
}

// AblationCrossbar deploys the pretrained model on the circuit-level
// crossbar simulator and compares defect accuracy under per-cell fault
// maps with the fast weight-level model at the same rate.
func AblationCrossbar(ctx context.Context, e *Env, ds string, psa float64, opts reram.MapOptions) (CrossbarAblationResult, error) {
	_, test := e.Dataset(ds)
	ev := e.DefectEval()
	res := CrossbarAblationResult{Psa: psa}
	net, err := e.Pretrained(ctx, ds)
	if err != nil {
		return res, err
	}
	res.CleanAcc = core.EvalClean(net, test, ev.Batch) * 100
	sum, err := core.EvalDefect(ctx, net, test, psa, ev)
	if err != nil {
		return res, err
	}
	res.WeightLevelAcc = sum.Mean * 100

	mn := reram.MapNetwork(net, opts)
	undo := mn.ApplyEffectiveWeights()
	res.QuantizedAcc = metrics.Evaluate(net, test, ev.Batch) * 100
	undo()

	rng := tensor.NewRNG(ev.Seed).Stream("crossbar-ablation")
	var accs []float64
	for run := 0; run < ev.Runs; run++ {
		if err := ctx.Err(); err != nil {
			mn.ClearFaults()
			return res, err
		}
		mn.ClearFaults()
		mn.InjectFaults(rng.StreamN("run", run), fault.ChenModel(), psa)
		u := mn.ApplyEffectiveWeights()
		accs = append(accs, metrics.Evaluate(net, test, ev.Batch))
		u()
	}
	mn.ClearFaults()
	res.CircuitAcc = metrics.Summarize(accs).Mean * 100
	return res, nil
}

// LadderTable renders the A1 rows.
func LadderTable(rows []LadderAblationRow, target float64) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("A1: progressive ladder depth at Psa^T=%g (compute-fair)", target),
		"rungs", "ladder", "clean acc %", fmt.Sprintf("defect acc %% @%g", target))
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.Rungs), fmt.Sprintf("%v", r.Ladder),
			fmt.Sprintf("%.2f", r.CleanAcc), fmt.Sprintf("%.2f", r.DefectAcc))
	}
	return t
}
