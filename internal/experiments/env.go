package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"github.com/ftpim/ftpim/internal/ckpt"
	"github.com/ftpim/ftpim/internal/core"
	"github.com/ftpim/ftpim/internal/data"
	"github.com/ftpim/ftpim/internal/fault"
	"github.com/ftpim/ftpim/internal/models"
	"github.com/ftpim/ftpim/internal/nn"
	"github.com/ftpim/ftpim/internal/obs"
	"github.com/ftpim/ftpim/internal/prune"
)

// Env owns the datasets and trained models an experiment run needs.
// Trained model states are cached in memory and, when CacheDir is set,
// on disk keyed by a hash of the full Scale — so regenerating a table
// reuses every previously trained model.
type Env struct {
	Scale    Scale
	CacheDir string
	// Sink receives every run event the environment's training and
	// evaluation work emits, plus cache.hit/miss/write trace events
	// (nil → obs.Null). Events never perturb results.
	Sink obs.Sink

	// Ckpt, when set, gives every training run a crash-safe checkpoint
	// directory keyed by its cache key, so a killed sweep resumes at
	// the last epoch boundary instead of the last finished model. A
	// run's checkpoints are deleted once its model reaches the cache —
	// the cache entry supersedes them. CkptEvery is the epoch interval
	// between writes (<=0 → every epoch).
	Ckpt      *ckpt.Store
	CkptEvery int

	// Scenario selects the fault scenario every training injection and
	// defect evaluation in this environment uses (nil → the default
	// "chen" scenario, preserving all legacy outputs byte-identically).
	// FT models trained under a non-default scenario get their own
	// cache keys; scenario-independent models (pretrained, pruned
	// without FT) are shared across scenarios.
	Scenario fault.Scenario

	datasets map[string][2]*data.Dataset
	nets     map[string]*nn.Network
}

// NewEnv creates an environment for the given preset. sink may be nil
// for a silent run.
func NewEnv(preset, cacheDir string, sink obs.Sink) *Env {
	return &Env{
		Scale:    ScaleFor(preset),
		CacheDir: cacheDir,
		Sink:     sink,
		datasets: map[string][2]*data.Dataset{},
		nets:     map[string]*nn.Network{},
	}
}

// sink resolves the environment's sink (nil → obs.Null).
func (e *Env) sink() obs.Sink { return obs.Or(e.Sink) }

func (e *Env) logf(format string, args ...any) {
	obs.Logf(e.Sink, format, args...)
}

// Dataset returns the train/test split for "c10" or "c100". The
// "paper" preset loads real CIFAR binaries from data/cifar10 or
// data/cifar100 when present, falling back to the synthetic generator.
func (e *Env) Dataset(name string) (train, test *data.Dataset) {
	if pair, ok := e.datasets[name]; ok {
		return pair[0], pair[1]
	}
	var cfg data.SynthConfig
	switch name {
	case "c10":
		cfg = e.Scale.C10
	case "c100":
		cfg = e.Scale.C100
	default:
		panic(fmt.Sprintf("experiments: unknown dataset %q", name))
	}
	if e.Scale.Name == "paper" {
		var err error
		if name == "c10" {
			train, test, err = data.LoadCIFAR10Dir("data/cifar10")
		} else {
			train, test, err = data.LoadCIFAR100Dir("data/cifar100")
		}
		if err == nil {
			e.logf("loaded real %s from disk (%d train / %d test)", name, train.N(), test.N())
			e.datasets[name] = [2]*data.Dataset{train, test}
			return train, test
		}
		e.logf("real %s unavailable (%v); generating synthetic substitute", name, err)
	}
	train, test = data.Generate(cfg)
	e.datasets[name] = [2]*data.Dataset{train, test}
	return train, test
}

// buildModel constructs the (untrained) architecture for a dataset.
func (e *Env) buildModel(ds string) *nn.Network {
	s := e.Scale
	switch ds {
	case "c10":
		cfg := models.ResNetConfig{Depth: s.DepthC10, Classes: s.C10.Classes, InChannels: 3, WidthMult: s.Width, Seed: s.Seed}
		return models.BuildResNet(cfg)
	case "c100":
		cfg := models.ResNetConfig{Depth: s.DepthC100, Classes: s.C100.Classes, InChannels: 3, WidthMult: s.Width, Seed: s.Seed}
		return models.BuildResNet(cfg)
	default:
		panic(fmt.Sprintf("experiments: unknown dataset %q", ds))
	}
}

// scaleHash folds the full Scale into the cache key so stale caches
// from a different configuration are never reused. Workers is
// normalized out: parallelism is bit-deterministic, so a model trained
// at any worker count is valid for every other.
func (e *Env) scaleHash() uint64 {
	s := e.Scale
	s.Workers = 0
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", s)
	return h.Sum64()
}

// cacheSection names the one section of a cache file: an FTCK
// container (internal/ckpt) holding the network's Snapshot.
const cacheSection = "net"

// cached returns the model registered under key, training it with
// train() (starting from an untrained ds model) on a miss. The disk
// cache is consulted when CacheDir is set. A file that fails any
// check — CRC, section set, tensor shapes — is a miss that retrains;
// writes are atomic, and a canceled training run is never cached.
func (e *Env) cached(key, ds string, train func(net *nn.Network) error) (*nn.Network, error) {
	if net, ok := e.nets[key]; ok {
		return net, nil
	}
	sink := e.sink()
	path := ""
	if e.CacheDir != "" {
		path = filepath.Join(e.CacheDir, fmt.Sprintf("%s-%016x.ftck", key, e.scaleHash()))
		if file, err := os.ReadFile(path); err == nil {
			net := e.buildModel(ds)
			sections, err := ckpt.Decode(file)
			if err == nil {
				err = ckpt.Expect(sections, cacheSection)
			}
			if err == nil {
				err = net.Restore(sections[cacheSection])
			}
			if err == nil {
				if sink.Enabled() {
					sink.Emit(obs.Event{Kind: obs.KindCacheHit, Key: key})
				}
				e.nets[key] = net
				return net, nil
			}
			e.logf("cache for %s unreadable (%v); retraining", key, err)
		}
	}
	net := e.buildModel(ds)
	if sink.Enabled() {
		sink.Emit(obs.Event{Kind: obs.KindCacheMiss, Key: key})
	}
	if err := train(net); err != nil {
		return nil, err
	}
	e.nets[key] = net
	if path != "" {
		e.writeCache(path, key, net)
	}
	// The finished model supersedes its training checkpoints (including
	// any per-phase "key.*" runs); drop them so a later resumed sweep
	// does not replay a completed run from stale state.
	if e.Ckpt != nil {
		e.Ckpt.ClearKey(key)
	}
	return net, nil
}

// writeCache persists net with ckpt.WriteFile, so readers never observe
// a torn entry. A failed write is logged; the run goes on uncached.
func (e *Env) writeCache(path, key string, net *nn.Network) {
	file, err := ckpt.Encode(map[string][]byte{cacheSection: net.Snapshot()})
	if err == nil {
		err = os.MkdirAll(e.CacheDir, 0o755)
	}
	if err == nil {
		err = ckpt.WriteFile(path, file)
	}
	if err != nil {
		e.logf("cache write for %s failed: %v", key, err)
		return
	}
	if s := e.sink(); s.Enabled() {
		s.Emit(obs.Event{Kind: obs.KindCacheWrite, Key: key})
	}
}

// trainCfg builds the shared training configuration. key names the
// training run for crash-safe checkpointing (distinct per cached model
// and, for multi-phase recipes, per phase via a "." suffix); it is
// ignored unless e.Ckpt is set.
func (e *Env) trainCfg(key string, epochs int, lr float64, seed uint64) core.Config {
	s := e.Scale
	cfg := core.Config{
		Epochs: epochs, Batch: s.Batch,
		LR: lr, Momentum: s.Momentum, WeightDecay: s.WeightDecay,
		Aug: s.Aug, Seed: seed, Sink: e.Sink,
		Scenario: e.Scenario,
	}
	if e.Ckpt != nil {
		// Checkpoint runs are keyed like the cache entry they feed, so
		// cached()'s ClearKey finds them.
		cfg.Ckpt = e.Ckpt.Run(key)
		cfg.CkptEvery = e.CkptEvery
	}
	return cfg
}

// scenarioSuffix is the cache-key suffix of FT models whose training
// injection depends on the environment's scenario: empty for the
// default scenario — so every pre-existing cache entry and checkpoint
// stays valid — and a spec-derived tag otherwise.
func (e *Env) scenarioSuffix() string {
	if e.Scenario == nil {
		return ""
	}
	spec := e.Scenario.Spec()
	if spec == fault.Default().Spec() {
		return ""
	}
	return fmt.Sprintf("+sc%d", hash64(spec))
}

// Pretrained returns the baseline well-trained model for a dataset
// (the Acc_pretrain model of Figure 1).
func (e *Env) Pretrained(ctx context.Context, ds string) (*nn.Network, error) {
	train, _ := e.Dataset(ds)
	key := "pretrain-" + ds
	return e.cached(key, ds, func(net *nn.Network) error {
		_, err := core.Train(ctx, net, train, e.trainCfg(key, e.Scale.PretrainEpochs, e.Scale.LR, e.Scale.Seed))
		return err
	})
}

// OneShot returns the one-shot stochastic FT model retrained from the
// pretrained baseline at training rate Psa^T.
func (e *Env) OneShot(ctx context.Context, ds string, rate float64) (*nn.Network, error) {
	train, _ := e.Dataset(ds)
	key := fmt.Sprintf("oneshot-%s-%g%s", ds, rate, e.scenarioSuffix())
	return e.cached(key, ds, func(net *nn.Network) error {
		base, err := e.Pretrained(ctx, ds)
		if err != nil {
			return err
		}
		mustRestore(net, base)
		cfg := e.trainCfg(key, e.Scale.FTEpochs, e.Scale.FTLR, e.Scale.Seed+hash64(key))
		_, err = core.OneShotFT(ctx, net, train, cfg, rate)
		return err
	})
}

// Progressive returns the progressive stochastic FT model retrained
// from the pretrained baseline up the ladder ending at Psa^T.
func (e *Env) Progressive(ctx context.Context, ds string, rate float64) (*nn.Network, error) {
	train, _ := e.Dataset(ds)
	key := fmt.Sprintf("prog-%s-%g%s", ds, rate, e.scenarioSuffix())
	return e.cached(key, ds, func(net *nn.Network) error {
		base, err := e.Pretrained(ctx, ds)
		if err != nil {
			return err
		}
		mustRestore(net, base)
		cfg := e.trainCfg(key, e.Scale.FTEpochs, e.Scale.FTLR, e.Scale.Seed+hash64(key))
		ladder := core.Ladder(rate, e.Scale.ProgRungs)
		_, err = core.ProgressiveFT(ctx, net, train, cfg, ladder, e.Scale.ProgEpochsPerStage)
		return err
	})
}

// PrunedMagnitude returns the one-shot magnitude-pruned (and
// fine-tuned) model at the given sparsity (Han et al. [27]).
func (e *Env) PrunedMagnitude(ctx context.Context, ds string, sparsity float64) (*nn.Network, error) {
	train, _ := e.Dataset(ds)
	key := fmt.Sprintf("mag-%s-%g", ds, sparsity)
	return e.cached(key, ds, func(net *nn.Network) error {
		base, err := e.Pretrained(ctx, ds)
		if err != nil {
			return err
		}
		mustRestore(net, base)
		prune.MagnitudePrune(net.WeightParams(), sparsity, false)
		_, err = core.Train(ctx, net, train, e.trainCfg(key, e.Scale.FinetuneEpochs, e.Scale.FTLR, e.Scale.Seed+hash64(key)))
		return err
	})
}

// PrunedADMM returns the ADMM-pruned (and fine-tuned) model at the
// given sparsity (Zhang et al. [12]).
func (e *Env) PrunedADMM(ctx context.Context, ds string, sparsity float64) (*nn.Network, error) {
	train, _ := e.Dataset(ds)
	key := fmt.Sprintf("admm-%s-%g", ds, sparsity)
	return e.cached(key, ds, func(net *nn.Network) error {
		base, err := e.Pretrained(ctx, ds)
		if err != nil {
			return err
		}
		mustRestore(net, base)
		admm := prune.NewADMM(net.WeightParams(), sparsity, e.Scale.ADMMRho)
		cfg := e.trainCfg(key+".admm", e.Scale.ADMMEpochs, e.Scale.FTLR, e.Scale.Seed+hash64(key))
		cfg.ADMM = admm
		cfg.ADMMInterval = 2
		if _, err := core.Train(ctx, net, train, cfg); err != nil {
			return err
		}
		admm.Finalize()
		_, err = core.Train(ctx, net, train, e.trainCfg(key+".ft", e.Scale.FinetuneEpochs, e.Scale.FTLR, e.Scale.Seed+hash64(key)+1))
		return err
	})
}

// PrunedFT returns the ADMM-pruned model after stochastic FT
// retraining (one-shot or progressive) at the given rate — the
// Table II lower section.
func (e *Env) PrunedFT(ctx context.Context, ds string, sparsity, rate float64, progressive bool) (*nn.Network, error) {
	train, _ := e.Dataset(ds)
	method := "os"
	if progressive {
		method = "prog"
	}
	key := fmt.Sprintf("admmft-%s-%g-%s-%g%s", ds, sparsity, method, rate, e.scenarioSuffix())
	return e.cached(key, ds, func(net *nn.Network) error {
		base, err := e.PrunedADMM(ctx, ds, sparsity)
		if err != nil {
			return err
		}
		mustRestore(net, base)
		cfg := e.trainCfg(key, e.Scale.FTEpochs, e.Scale.FTLR, e.Scale.Seed+hash64(key))
		if progressive {
			_, err = core.ProgressiveFT(ctx, net, train, cfg, core.Ladder(rate, e.Scale.ProgRungs), e.Scale.ProgEpochsPerStage)
		} else {
			_, err = core.OneShotFT(ctx, net, train, cfg, rate)
		}
		return err
	})
}

// DropConnect returns the drop-connect FT model retrained from the
// pretrained baseline with per-batch drop rate `drop`. The scheme
// fixes its own ("drop") scenario, so the cached model is shared
// across environment scenarios.
func (e *Env) DropConnect(ctx context.Context, ds string, drop float64) (*nn.Network, error) {
	train, _ := e.Dataset(ds)
	key := fmt.Sprintf("dropconnect-%s-%g", ds, drop)
	return e.cached(key, ds, func(net *nn.Network) error {
		base, err := e.Pretrained(ctx, ds)
		if err != nil {
			return err
		}
		mustRestore(net, base)
		cfg := e.trainCfg(key, e.Scale.FTEpochs, e.Scale.FTLR, e.Scale.Seed+hash64(key))
		cfg.Scenario = nil // DropConnectFT installs the drop scenario
		_, err = core.DropConnectFT(ctx, net, train, cfg, drop)
		return err
	})
}

// DefectEval returns the evaluation protocol at this scale, under the
// environment's scenario.
func (e *Env) DefectEval() core.DefectEval {
	return core.DefectEval{
		Runs: e.Scale.DefectRuns, Batch: 128,
		Seed: e.Scale.Seed * 31, Workers: e.Scale.Workers,
		Sink: e.Sink, Scenario: e.Scenario,
	}
}

// mustRestore copies src's state into dst (architectures must match).
func mustRestore(dst, src *nn.Network) {
	if err := dst.Restore(src.Snapshot()); err != nil {
		panic(fmt.Sprintf("experiments: restore failed: %v", err))
	}
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64() % 1_000_000
}
