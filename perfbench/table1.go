package main

import (
	"bytes"
	"context"
	"math"
	"slices"
	"time"

	"github.com/ftpim/ftpim/internal/core"
	"github.com/ftpim/ftpim/internal/data"
	"github.com/ftpim/ftpim/internal/experiments"
	"github.com/ftpim/ftpim/internal/metrics"
	"github.com/ftpim/ftpim/internal/nn"
)

// ftRate is the FT phase's training stuck-at rate Psa^T.
const ftRate = 0.1

// Run structure: sweep rounds and FT rounds interleave (FT, sweep, FT,
// FT, sweep, FT), each after one setup repetition. CPU speed on a
// shared host swings by up to 2x over seconds, and contention only ever
// slows a repetition down, so each phase reports its fastest
// repetition: the figure a change to the code moves, and the one the
// host's drift moves least. FT repetitions are short (ftImages images,
// ftPerRound to a round) so that some of them land in a calm stretch.
const (
	table1Rounds = 6
	sweepEvery   = 3 // rounds 1 and 4 are sweeps
	ftPerRound   = 4
	ftImages     = 320 // 10 steps of 32
)

// runTable1 is the offline Table I pipeline on the float lane: one-shot
// FT retraining from the prepared model, and the defect sweep of the
// prepared model over the paper's 14 testing rates. Repetitions of each
// phase are checked against each other.
func runTable1(rc *runCtx, tr *tracer) (*pass, error) {
	ctx := context.Background()
	p := &pass{batch: 128}
	var ftNet *nn.Network
	setup := func() error {
		root := tr.begin(0, "setup")
		defer tr.end(root)
		start := time.Now()
		env := rc.model.newEnv(rc.nproc)
		var train, test *data.Dataset
		var net *nn.Network
		var err error
		tr.timed(root, "data.Env.Dataset", func() { train, test = env.Dataset(dataset) })
		tr.timed(root, "experiments.Env.Pretrained", func() { net, err = env.Pretrained(ctx, dataset) })
		if err != nil {
			return err
		}
		tr.timed(root, "nn.Network.Clone", func() { ftNet = net.Clone() })
		p.setup = append(p.setup, time.Since(start))
		if p.env == nil {
			p.env, p.train, p.test, p.float = env, train, test, net
		}
		return nil
	}
	if err := setup(); err != nil {
		return nil, err
	}
	s := p.env.Scale
	// The repro FT recipe, one epoch over the first ftImages training
	// images per repetition.
	cfg := core.Config{
		Epochs: 1, Batch: s.Batch, LR: s.FTLR, Momentum: s.Momentum,
		WeightDecay: s.WeightDecay, Aug: s.Aug, Seed: rc.seed("ft", 0),
	}
	ftSet := p.train.Head(ftImages)
	steps := cfg.Epochs * ((ftSet.N() + cfg.Batch - 1) / cfg.Batch)
	// The repro defect protocol (8 runs, batch 128) over Table I's rates.
	dcfg := p.env.DefectEval()
	dcfg.Seed = rc.seed("sweep", 0)
	before := p.float.Snapshot()

	var sweepRuns int
	var ftReps, sweepReps []time.Duration
	var firstFT []byte
	var firstSweep []metrics.Summary
	workStart := time.Now()
	for r := 0; r < table1Rounds; r++ {
		releaseAndResetPeak()
		if r > 0 {
			if err := setup(); err != nil {
				return nil, err
			}
		}
		if r%sweepEvery != 1 {
			phase := tr.begin(0, "phase.ft")
			for k := 0; k < ftPerRound; k++ {
				if k > 0 {
					ftNet = p.float.Clone() // the first starts from the setup's clone
				}
				var res *core.Result
				var err error
				d := tr.timed(phase, "core.OneShotFT", func() { res, err = core.OneShotFT(ctx, ftNet, ftSet, cfg, ftRate) })
				if err != nil {
					return nil, err
				}
				loss := res.FinalLoss()
				rc.rep.check(!math.IsNaN(loss) && !math.IsInf(loss, 0), "FT repetition %d: loss %v is not finite", len(ftReps), loss)
				if snap := ftNet.Snapshot(); ftReps == nil {
					firstFT = snap
				} else {
					rc.rep.check(bytes.Equal(snap, firstFT), "FT repetition %d: weights differ from repetition 0", len(ftReps))
				}
				ftReps = append(ftReps, d)
			}
			tr.end(phase)
		} else {
			var sums []metrics.Summary
			var err error
			phase := tr.begin(0, "phase.sweep")
			d := tr.timed(phase, "core.EvalDefectSweep", func() {
				sums, err = core.EvalDefectSweep(ctx, p.float, p.test, experiments.PaperTestRates, dcfg)
			})
			tr.end(phase)
			if err != nil {
				return nil, err
			}
			if sweepReps == nil {
				firstSweep = sums
				for _, sm := range sums {
					sweepRuns += sm.N
				}
			} else {
				rc.rep.check(equalSummaries(sums, firstSweep), "sweep repetition %d: summaries differ from repetition 0", len(sweepReps))
			}
			sweepReps = append(sweepReps, d)
		}
		p.rssMiB = math.Max(p.rssMiB, peakRSSMiB())
	}
	p.work = time.Since(workStart)
	checkSweep(rc.rep, p.float, p.test, firstSweep, before)

	ftBest, sweepBest := slices.Min(ftReps), slices.Min(sweepReps)
	p.opsPerS = float64(sweepRuns) / sweepBest.Seconds()
	p.opMs = ms(ftBest) / float64(steps)
	p.named = []namedMetric{
		{"ft_train_img_per_s", "img/s", float64(cfg.Epochs*ftSet.N()) / ftBest.Seconds()},
		{"sweep_runs_per_s", "runs/s", p.opsPerS},
		{"ft_step_ms", "ms", p.opMs},
	}
	rc.rep.printf("table1: %d FT repetitions of %d images %v, %d sweeps of %d rates %v, %d setups",
		len(ftReps), ftSet.N(), roundDurations(ftReps), len(sweepReps), len(experiments.PaperTestRates), roundDurations(sweepReps), len(p.setup))
	return p, nil
}

// checkSweep verifies the sweep's summaries against independent
// evidence: rate 0 is exactly one clean metrics.Evaluate pass, the
// highest rate scores lower, and the swept model is bitwise unchanged.
func checkSweep(rep *report, net *nn.Network, test *data.Dataset, sums []metrics.Summary, before []byte) {
	rates := experiments.PaperTestRates
	clean := metrics.Evaluate(net, test, 128)
	rep.check(sums[0].Mean == clean, "sweep mean at rate 0 is %v, metrics.Evaluate gives %v", sums[0].Mean, clean)
	last := len(rates) - 1
	rep.check(sums[last].Mean < sums[0].Mean, "sweep mean at rate %g (%v) is not below rate 0 (%v)", rates[last], sums[last].Mean, sums[0].Mean)
	rep.check(bytes.Equal(net.Snapshot(), before), "swept model's weights changed")
}

func equalSummaries(a, b []metrics.Summary) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
