// Package core implements the paper's contribution: stochastic
// fault-tolerant (FT) training of DNNs for ReRAM-based
// processing-in-memory accelerators.
//
// The key mechanism (Algorithm 1 of the paper) fuses the model weights
// with freshly sampled stuck-at faults during retraining. Each epoch a
// fault pattern with rate Psa is drawn; every mini-batch runs forward
// and backward through the faulted weights, and the resulting gradient
// is applied to the clean weights (straight-through). Two schemes are
// provided: one-shot training at a fixed target rate Psa^T, and
// progressive training up an ascending ladder of rates ending at Psa^T.
//
// The package also provides the defect evaluation protocol (average
// accuracy over repeated random fault injections) and the
// device-specific fault-aware retraining baseline the paper compares
// against.
//
// Every long-running entry point (Train, OneShotFT, ProgressiveFT,
// EvalDefect, EvalDefectSweep, Stability) takes a context.Context and
// an observability sink: cancelling the context aborts the run at the
// next batch or Monte-Carlo run boundary — weights are never left
// mid-mutation — and structured run events stream to the configured
// obs.Sink. Events observe, never perturb: results with any sink are
// bit-identical to results with none, at every worker count.
package core

import (
	"context"
	"fmt"
	"time"

	"github.com/ftpim/ftpim/internal/ckpt"
	"github.com/ftpim/ftpim/internal/data"
	"github.com/ftpim/ftpim/internal/fault"
	"github.com/ftpim/ftpim/internal/nn"
	"github.com/ftpim/ftpim/internal/obs"
	"github.com/ftpim/ftpim/internal/optim"
	"github.com/ftpim/ftpim/internal/prune"
	"github.com/ftpim/ftpim/internal/tensor"
)

// Config parameterizes one training run (clean, stochastic-FT, ADMM or
// device-pinned).
type Config struct {
	Epochs      int
	Batch       int
	LR          float64
	Momentum    float64
	WeightDecay float64
	Schedule    optim.Schedule // nil → cosine from LR over Epochs
	Aug         data.Augment
	Seed        uint64

	// FaultRate is the stochastic training stuck-at rate Psa. Zero
	// disables fault injection (plain training).
	FaultRate  float64
	FaultModel fault.Model // zero value → fault.ChenModel()
	// Scenario selects the training fault distribution. Nil resolves
	// to the persistent stuck-at scenario over FaultModel, preserving
	// legacy behavior bit for bit; when both are set, Scenario wins. A
	// transient scenario forces PerBatch (its faults are momentary by
	// definition).
	Scenario fault.Scenario
	// PerBatch resamples the fault pattern every mini-batch instead of
	// every epoch (Algorithm 1 resamples per epoch; per-batch is the
	// A2 ablation).
	PerBatch bool
	// Pinned, when set, trains against one fixed device defect map —
	// the device-specific fault-aware retraining baseline [5].
	// FaultRate is ignored.
	Pinned *fault.DeviceMap

	// ADMM, when set, adds the augmented-Lagrangian pruning penalty and
	// updates the duals every ADMMInterval epochs (default 3).
	ADMM         *prune.ADMM
	ADMMInterval int

	// EvalDS, when set, is evaluated (clean, inference mode) after
	// every epoch; with KeepBest the weights giving the best EvalDS
	// accuracy are restored at the end of Train — a standard guard
	// against late-schedule regressions, useful for short FT budgets.
	EvalDS   *data.Dataset
	KeepBest bool

	// Sink receives structured run events — train.epoch per epoch,
	// ft.stage per progressive rung, timing at the end (nil → obs.Null).
	// Events observe the run and never perturb its RNG or float
	// streams, so results are identical with any sink attached.
	Sink obs.Sink

	// Ckpt, when set, makes the run crash-safe: the full training state
	// (weights, masks, BN stats, SGD velocity, ADMM duals, shuffle-RNG
	// cursor, epoch history) is snapshotted at epoch boundaries through
	// this checkpoint run, and — when the run was created resumable — the
	// newest intact snapshot is restored on entry, skipping the already-
	// completed epochs. Checkpoints never perturb the run: the resumed
	// final weights and EpochStats are bit-identical to an uninterrupted
	// run's, at every worker count. Nil disables checkpointing with zero
	// cost on the training hot path.
	Ckpt *ckpt.Run
	// CkptEvery is the number of epochs between checkpoint writes
	// (<= 0 → 1). The final epoch of the run and a context cancellation
	// always flush the last completed boundary regardless of interval.
	CkptEvery int

	// ckptStage tags checkpoints with the multi-stage position of this
	// Train call (progressive-FT rung index); ckptPrefix is the
	// cumulative history of completed earlier stages, round-tripped
	// through checkpoints so a resumed ladder reports its full trace.
	// Both are managed by ProgressiveFT.
	ckptStage  int
	ckptPrefix []EpochStats
}

// Normalize returns cfg with every optional zero-valued field resolved
// to its documented default:
//
//   - Schedule nil → cosine annealing from LR over Epochs
//   - ADMMInterval <= 0 → 3
//   - FaultModel zero value → fault.ChenModel() (an explicitly set but
//     degenerate model panics loudly instead of being remapped)
//   - Scenario nil → stuck-at scenario over the resolved FaultModel
//     (an explicitly set but invalid scenario panics, matching
//     FaultModel); a transient scenario sets PerBatch
//   - Sink nil → obs.Null
//
// Train applies Normalize internally; callers only need it to inspect
// the effective configuration. Required fields (Epochs, Batch, LR) are
// not defaulted — Train panics when they are invalid.
func (c Config) Normalize() Config {
	if c.Schedule == nil {
		c.Schedule = optim.NewCosine(c.LR, c.Epochs)
	}
	if c.ADMMInterval <= 0 {
		c.ADMMInterval = 3
	}
	c.FaultModel = c.model()
	c.Scenario = c.scenario()
	if c.Scenario.Transient() {
		c.PerBatch = true
	}
	c.Sink = obs.Or(c.Sink)
	return c
}

// scenario resolves the effective training fault scenario, mirroring
// DefectEval.scenario.
func (c Config) scenario() fault.Scenario {
	if c.Scenario == nil {
		return fault.StuckAt(c.model())
	}
	if err := c.Scenario.Validate(); err != nil {
		panic("core: invalid Config.Scenario: " + err.Error())
	}
	return c.Scenario
}

// model resolves the effective fault model: the zero value means
// "unset" and yields the paper's ChenModel; an explicitly set model is
// validated so a degenerate choice fails loudly here rather than
// deep inside an injection pass.
func (c Config) model() fault.Model {
	if c.FaultModel.IsZero() {
		return fault.ChenModel()
	}
	if err := c.FaultModel.Validate(); err != nil {
		panic("core: invalid Config.FaultModel: " + err.Error())
	}
	return c.FaultModel
}

// EpochStats records one epoch of training.
type EpochStats struct {
	Epoch     int
	LR        float64
	Loss      float64 // mean batch loss
	TrainAcc  float64 // accuracy on (augmented, possibly faulted) batches
	EvalAcc   float64 // clean accuracy on Config.EvalDS (0 when unset)
	FaultRate float64 // Psa used this epoch
}

// Result is a training run's trace.
type Result struct {
	History []EpochStats
	// BestEvalAcc and BestEpoch are set when Config.EvalDS is used.
	BestEvalAcc float64
	BestEpoch   int
}

// FinalLoss returns the last epoch's mean loss (0 for an empty run).
func (r *Result) FinalLoss() float64 {
	if len(r.History) == 0 {
		return 0
	}
	return r.History[len(r.History)-1].Loss
}

// WeightTensors returns the crossbar-mapped weight tensors of a
// network — the fault-injection targets.
func WeightTensors(net *nn.Network) []*tensor.Tensor {
	var ts []*tensor.Tensor
	for _, p := range net.WeightParams() {
		ts = append(ts, p.W)
	}
	return ts
}

// Train runs the configured training loop on net. It implements plain
// training (FaultRate 0), one-shot stochastic fault-tolerant training
// (FaultRate > 0), device-pinned retraining (Pinned) and ADMM-penalized
// training, which compose freely.
//
// Cancelling ctx aborts at the next mini-batch boundary — any injected
// fault pattern has already been undone at that point, so the weights
// hold a consistent (partially trained) state — and Train returns the
// partial Result together with ctx's error. A nil error means the full
// epoch budget ran.
//
// With Config.Ckpt set, the run additionally snapshots its full state
// at epoch boundaries (and flushes the last boundary on cancellation),
// and resumes from the newest intact snapshot when one matching this
// run exists — replaying the remaining epochs bit-identically to an
// uninterrupted run. A cancellation mid-epoch is resumed from the
// preceding boundary; the interrupted epoch replays in full.
func Train(ctx context.Context, net *nn.Network, ds *data.Dataset, cfg Config) (*Result, error) {
	if cfg.Epochs <= 0 || cfg.Batch <= 0 {
		panic(fmt.Sprintf("core: invalid config epochs=%d batch=%d", cfg.Epochs, cfg.Batch))
	}
	if cfg.LR <= 0 {
		panic("core: LR must be positive")
	}
	cfg = cfg.Normalize()
	sink := cfg.Sink

	rng := tensor.NewRNG(cfg.Seed)
	opt := optim.NewSGD(net.Params(), cfg.LR, cfg.Momentum, cfg.WeightDecay)
	shuffleRNG := rng.Stream("shuffle")
	loader := data.NewLoader(ds, cfg.Batch, cfg.Aug, true, shuffleRNG)
	weights := WeightTensors(net)
	faultRNG := rng.Stream("train-faults")
	sc := cfg.Scenario

	start := time.Now()
	res := &Result{}
	var lossWS tensor.Workspace // softmax probs/gradient, reused per batch
	cs := newCkptSaver(&cfg, net, opt, shuffleRNG, loader)
	startEpoch, bestState, samples := cs.restore(res)
	for epoch := startEpoch; epoch < cfg.Epochs; epoch++ {
		opt.LR = cfg.Schedule.LR(epoch)

		// Per Algorithm 1 the fault pattern is redrawn each epoch and
		// held fixed across the epoch's batches (unless PerBatch).
		var dm *fault.DeviceMap
		switch {
		case cfg.Pinned != nil:
			dm = cfg.Pinned
		case cfg.FaultRate > 0 && !cfg.PerBatch:
			dm = sc.DrawMap(faultRNG.StreamN("epoch", epoch), weights, cfg.FaultRate)
		}

		loader.Epoch()
		var lossSum float64
		var correct, seen, batches int
		for step := 0; ; step++ {
			if err := ctx.Err(); err != nil {
				cs.onCancel(epoch)
				return res, err
			}
			x, y := loader.Next()
			if x == nil {
				break
			}
			if cfg.PerBatch && cfg.FaultRate > 0 && cfg.Pinned == nil {
				dm = sc.DrawMap(faultRNG.StreamN("batch", epoch*100000+step), weights, cfg.FaultRate)
			}
			var lesion *fault.Lesion
			if dm != nil {
				lesion = dm.Apply(weights)
			}
			net.ZeroGrad()
			out := net.Forward(x, true)
			loss, dOut := nn.SoftmaxCrossEntropyWS(&lossWS, out, y)
			for i := 0; i < len(y); i++ {
				if out.ArgMaxRow(i) == y[i] {
					correct++
				}
			}
			seen += len(y)
			net.Backward(dOut)
			if lesion != nil {
				// Straight-through: restore clean weights, then apply
				// the gradient computed at the faulted point.
				lesion.Undo()
			}
			if cfg.ADMM != nil {
				cfg.ADMM.AddPenaltyGrad()
			}
			opt.Step()
			lossSum += loss
			batches++
		}
		if cfg.ADMM != nil && (epoch+1)%cfg.ADMMInterval == 0 {
			cfg.ADMM.UpdateDuals()
		}
		samples += seen
		st := EpochStats{
			Epoch:     epoch,
			LR:        opt.LR,
			Loss:      lossSum / float64(batches),
			TrainAcc:  float64(correct) / float64(seen),
			FaultRate: cfg.FaultRate,
		}
		if cfg.Pinned != nil {
			st.FaultRate = cfg.Pinned.Psa
		}
		if cfg.EvalDS != nil {
			st.EvalAcc = EvalClean(net, cfg.EvalDS, cfg.Batch)
			if st.EvalAcc > res.BestEvalAcc {
				res.BestEvalAcc = st.EvalAcc
				res.BestEpoch = epoch
				if cfg.KeepBest {
					bestState = net.Snapshot()
				}
			}
		}
		res.History = append(res.History, st)
		cs.epochEnd(epoch, res, bestState, samples)
		if sink.Enabled() {
			sink.Emit(obs.Event{
				Kind: obs.KindTrainEpoch, Epoch: epoch + 1,
				LR: st.LR, Loss: st.Loss, Acc: st.TrainAcc,
				EvalAcc: st.EvalAcc, Rate: st.FaultRate,
			})
		}
	}
	if cfg.KeepBest && bestState != nil {
		if err := net.Restore(bestState); err != nil {
			panic(fmt.Sprintf("core: best-snapshot restore failed: %v", err))
		}
		obs.Logf(sink, "restored best epoch %d (eval acc %.4f)", res.BestEpoch, res.BestEvalAcc)
	}
	if sink.Enabled() {
		sink.Emit(obs.Event{
			Kind: obs.KindTiming, Phase: "train",
			Seconds: time.Since(start).Seconds(), N: samples,
		})
	}
	return res, nil
}
