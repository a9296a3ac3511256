package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ftpim/ftpim/internal/data"
	"github.com/ftpim/ftpim/internal/fault"
	"github.com/ftpim/ftpim/internal/metrics"
	"github.com/ftpim/ftpim/internal/nn"
	"github.com/ftpim/ftpim/internal/obs"
)

// DefectEval parameterizes the defect-accuracy protocol: the paper
// applies random stuck-at faults to the trained weights and averages
// the test accuracy over num_of_runs repetitions (100 in the paper;
// the repro preset uses fewer).
//
// Workers bounds the goroutines used for the Monte-Carlo loop:
// 0 → runtime.NumCPU(), 1 → the exact legacy serial path. Results are
// bit-identical at every worker count: run r always draws its faults
// from fault.RunRNG(Seed, r) and is evaluated on a private clone of
// the network, so neither scheduling nor sharing can perturb the
// floating-point stream.
type DefectEval struct {
	Runs    int         // <= 0 → 10
	Batch   int         // <= 0 → 64 (metrics.Evaluate default)
	Model   fault.Model // zero value → fault.ChenModel()
	Seed    uint64
	Workers int // 0 = all cores, 1 = serial reference path

	// Scenario selects the fault distribution. Nil resolves to the
	// persistent stuck-at scenario over Model — i.e. fault.Default()
	// when Model is also unset — so legacy configurations behave
	// byte-identically. When both are set, Scenario wins and Model is
	// ignored.
	Scenario fault.Scenario

	// Sink receives one eval.run event per Monte-Carlo run plus a
	// timing event per EvalDefect call (nil → obs.Null). With Workers
	// > 1 the eval.run events arrive from worker goroutines in
	// scheduling order; Event.Run identifies the draw. Events never
	// perturb results: summaries are bit-identical with any sink.
	Sink obs.Sink
}

// Normalize returns d with every optional zero-valued field resolved to
// its documented default:
//
//   - Runs <= 0 → 10
//   - Batch <= 0 → 64
//   - Model zero value → fault.ChenModel() (an explicitly set but
//     degenerate model panics loudly instead of being remapped)
//   - Scenario nil → the stuck-at scenario over the resolved Model
//     (an explicitly set but invalid scenario panics, matching Model)
//   - Workers <= 0 → runtime.NumCPU()
//   - Sink nil → obs.Null
//
// The Eval* entry points apply Normalize internally; callers only need
// it to inspect the effective configuration.
func (d DefectEval) Normalize() DefectEval {
	if d.Runs <= 0 {
		d.Runs = 10
	}
	if d.Batch <= 0 {
		d.Batch = 64
	}
	d.Model = d.model()
	d.Scenario = d.scenario()
	if d.Workers <= 0 {
		d.Workers = runtime.NumCPU()
	}
	d.Sink = obs.Or(d.Sink)
	return d
}

// model resolves the effective fault model: the zero value means
// "unset" and yields the paper's ChenModel; an explicitly set model is
// validated so a degenerate choice fails loudly here rather than
// silently evaluating the wrong fault mix.
func (d DefectEval) model() fault.Model {
	if d.Model.IsZero() {
		return fault.ChenModel()
	}
	if err := d.Model.Validate(); err != nil {
		panic("core: invalid DefectEval.Model: " + err.Error())
	}
	return d.Model
}

// scenario resolves the effective fault scenario: nil means "unset"
// and yields the persistent stuck-at scenario over the resolved Model
// (fault.Default() when Model is unset too); an explicitly set
// scenario is validated so an unusable one fails loudly here.
func (d DefectEval) scenario() fault.Scenario {
	if d.Scenario == nil {
		return fault.StuckAt(d.model())
	}
	if err := d.Scenario.Validate(); err != nil {
		panic("core: invalid DefectEval.Scenario: " + err.Error())
	}
	return d.Scenario
}

// EvalClean returns the fault-free test accuracy.
func EvalClean(net *nn.Network, ds *data.Dataset, batch int) float64 {
	return metrics.Evaluate(net, ds, batch)
}

// CloneEntry is one reusable worker state: a deep clone of the source
// network plus a fault injector bound to the clone's weight tensors.
// Net may be mutated freely (forward passes, lesions) as long as every
// lesion is undone before the entry goes back to its pool.
type CloneEntry struct {
	Net  *nn.Network
	inj  fault.Injector
	spec string // scenario spec inj was built for
}

// Injector returns the entry's current injector, bound to Net's
// weights (nil until InjectorFor has run).
func (e *CloneEntry) Injector() fault.Injector { return e.inj }

// InjectorFor returns an injector of scenario sc bound to Net's
// weights, rebuilding it only when the scenario changed since the
// last call — a pooled entry evaluating the same scenario keeps its
// injector (and the injector's recycled lesion) across checkouts.
func (e *CloneEntry) InjectorFor(sc fault.Scenario) fault.Injector {
	if spec := sc.Spec(); e.inj == nil || e.spec != spec {
		e.inj = sc.NewInjector(WeightTensors(e.Net))
		e.spec = spec
	}
	return e.inj
}

// ClonePool hands out reusable deep clones of a source network. A
// clone is safe to reuse between checkouts because every lesion is
// undone bitwise before the entry is returned and the source network
// is never mutated — so a pooled clone is indistinguishable from a
// fresh one, and results stay bit-identical to per-call cloning. Only
// the scheduling changes: a multi-rate sweep creates at most Workers
// clones total instead of Workers per rate, and a serving process
// creates one clone per concurrent executor for its whole lifetime.
//
// The pool is safe for concurrent use. Entries must not be shared:
// layers keep scratch buffers and fault injection mutates weights in
// place, so each checked-out entry belongs to exactly one goroutine
// until Put.
type ClonePool struct {
	mu      sync.Mutex
	src     *nn.Network
	sc      fault.Scenario
	entries []*CloneEntry
}

// NewClonePool creates a pool of clones of src whose injectors default
// to scenario sc. Nil resolves to fault.Default(); an explicitly set
// invalid scenario panics, matching DefectEval.Normalize. Entries can
// still be re-bound to other scenarios via CloneEntry.InjectorFor.
func NewClonePool(src *nn.Network, sc fault.Scenario) *ClonePool {
	sc = (DefectEval{Scenario: sc}).scenario()
	return &ClonePool{src: src, sc: sc}
}

// evalCloneCreates counts clone constructions for the pool-reuse test.
var evalCloneCreates atomic.Int64

// Get checks an entry out of the pool, cloning the source network if
// no idle entry is available.
func (p *ClonePool) Get() *CloneEntry {
	p.mu.Lock()
	if n := len(p.entries); n > 0 {
		e := p.entries[n-1]
		p.entries = p.entries[:n-1]
		p.mu.Unlock()
		return e
	}
	p.mu.Unlock()
	evalCloneCreates.Add(1)
	clone := p.src.Clone()
	e := &CloneEntry{Net: clone}
	e.InjectorFor(p.sc)
	return e
}

// Put returns an entry for reuse. The caller must have undone every
// lesion it applied; the entry's weights must be bit-identical to the
// source network's.
func (p *ClonePool) Put(e *CloneEntry) {
	p.mu.Lock()
	p.entries = append(p.entries, e)
	p.mu.Unlock()
}

// stepHook redraws a transient-scenario lesion before every evaluation
// batch and undoes it afterwards: batch `step` of run `run` always
// sees the lesion of position (seed, run, step), regardless of worker
// count or scheduling. One hook is allocated per eval call (or per
// worker) outside the warm loop, keeping the steady-state run path
// within its allocation budget.
type stepHook struct {
	inj    fault.Injector
	seed   uint64
	run    int
	psa    float64
	lesion *fault.Lesion
}

// newStepHook returns the per-batch hook for a transient scenario, or
// nil for persistent ones.
func newStepHook(sc fault.Scenario, inj fault.Injector, seed uint64, psa float64) *stepHook {
	if !sc.Transient() {
		return nil
	}
	return &stepHook{inj: inj, seed: seed, psa: psa}
}

func (h *stepHook) BeforeBatch(step int) {
	h.lesion = h.inj.InjectStep(h.seed, h.run, step, h.psa)
}

func (h *stepHook) AfterBatch(int) { h.lesion.Undo() }

// evalRun executes one Monte-Carlo run: a persistent scenario injects
// once and holds the lesion across the whole pass; a transient one
// (hook != nil) redraws per batch through the hook.
func evalRun(net *nn.Network, ds *data.Dataset, cfg DefectEval, inj fault.Injector, hook *stepHook, run int, psa float64) float64 {
	if hook != nil {
		hook.run = run
		return metrics.EvaluateHooked(net, ds, cfg.Batch, hook)
	}
	lesion := inj.InjectRun(cfg.Seed, run, psa)
	acc := metrics.Evaluate(net, ds, cfg.Batch)
	lesion.Undo()
	return acc
}

// EvalDefect measures the model's accuracy under stuck-at faults at
// rate psa, averaged over cfg.Runs independent injections. The
// network's weights are identical before and after the call. With
// cfg.Workers != 1 the runs execute concurrently on private network
// clones; the returned Summary is bit-identical to the serial path.
//
// Cancelling ctx aborts at the next Monte-Carlo run boundary; the
// lesion in flight is undone first, so the live network's weights are
// always restored. On cancellation the Summary is the zero value and
// the error is ctx's.
func EvalDefect(ctx context.Context, net *nn.Network, ds *data.Dataset, psa float64, cfg DefectEval) (metrics.Summary, error) {
	return evalDefect(ctx, net, ds, psa, cfg.Normalize(), nil)
}

// evalDefect summarizes runs [0, cfg.Runs) at rate psa, or the single
// clean pass that is the whole sample at rate zero. pool goes to
// evalRuns (nil: per-call clones). cfg must already be normalized.
func evalDefect(ctx context.Context, net *nn.Network, ds *data.Dataset, psa float64, cfg DefectEval, pool *ClonePool) (metrics.Summary, error) {
	runs := cfg.Runs
	if psa == 0 {
		runs = 1
	}
	accs, err := evalRuns(ctx, net, ds, psa, 0, runs, cfg, pool)
	if err != nil {
		return metrics.Summary{}, err
	}
	return metrics.Summarize(accs), nil
}

// evalRuns is the Monte-Carlo engine behind EvalDefect,
// EvalDefectSweep and EvalDefectRuns. It evaluates runs [start, end)
// at rate psa and returns their accuracies in run order (index 0 is
// run start), emitting one eval.run event per run and one eval timing
// event. cfg must already be normalized and end > start.
//
// Rate zero has no stochasticity: one clean pass stands for every run
// and is reported once. With one worker or one run, the serial
// reference path injects into the live network, evaluates and undoes.
// Otherwise min(Workers, runs) workers each own a deep clone (fault
// injection mutates weights in place, and layers keep scratch buffers,
// so the live network cannot be shared), taken from pool — a sweep
// passes one so clones survive across its rates — or from a per-call
// pool when nil. Run r draws from fault.RunRNG(cfg.Seed, r) on either
// path and lands at its own index, so the values are bit-identical to
// the serial path whatever the scheduling.
//
// On cancellation the serial path stops at the next run boundary; the
// parallel dispatcher stops handing out runs and the workers drain.
// The live network's weights are always restored, and the result is
// nil plus ctx's error.
func evalRuns(ctx context.Context, net *nn.Network, ds *data.Dataset, psa float64, start, end int, cfg DefectEval, pool *ClonePool) ([]float64, error) {
	sink := cfg.Sink
	t0 := time.Now()
	accs := make([]float64, end-start)
	switch {
	case psa == 0:
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		acc := metrics.Evaluate(net, ds, cfg.Batch)
		for i := range accs {
			accs[i] = acc
		}
		if sink.Enabled() {
			sink.Emit(obs.Event{Kind: obs.KindEvalRun, Run: start + 1, Rate: 0, Acc: acc})
		}
	case cfg.Workers == 1 || len(accs) == 1:
		inj := cfg.Scenario.NewInjector(WeightTensors(net))
		hook := newStepHook(cfg.Scenario, inj, cfg.Seed, psa)
		for run := start; run < end; run++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			acc := evalRun(net, ds, cfg, inj, hook, run, psa)
			accs[run-start] = acc
			if sink.Enabled() {
				sink.Emit(obs.Event{Kind: obs.KindEvalRun, Run: run + 1, Rate: psa, Acc: acc})
			}
		}
	default:
		if pool == nil {
			pool = NewClonePool(net, cfg.Scenario)
		}
		jobs := make(chan int)
		var wg sync.WaitGroup
		for i := 0; i < min(cfg.Workers, len(accs)); i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				e := pool.Get()
				defer pool.Put(e)
				inj := e.InjectorFor(cfg.Scenario)
				hook := newStepHook(cfg.Scenario, inj, cfg.Seed, psa)
				for run := range jobs {
					if ctx.Err() != nil {
						continue // drain without evaluating
					}
					acc := evalRun(e.Net, ds, cfg, inj, hook, run, psa)
					accs[run-start] = acc
					if sink.Enabled() {
						sink.Emit(obs.Event{Kind: obs.KindEvalRun, Run: run + 1, Rate: psa, Acc: acc})
					}
				}
			}()
		}
	dispatch:
		for run := start; run < end; run++ {
			select {
			case jobs <- run:
			case <-ctx.Done():
				break dispatch
			}
		}
		close(jobs)
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	if sink.Enabled() {
		sink.Emit(obs.Event{Kind: obs.KindTiming, Phase: "eval", Seconds: time.Since(t0).Seconds(), N: len(accs)})
	}
	return accs, nil
}

// RateSeed derives the Monte-Carlo seed of rate index i in a sweep:
// every rate keeps an independent positional stream, and the offset is
// part of the determinism contract — a distributed coordinator hands
// RateSeed(i) to workers so their draws match EvalDefectSweep exactly.
func (d DefectEval) RateSeed(i int) uint64 {
	return d.Seed + uint64(i)*7_919
}

// EvalDefectRuns evaluates the contiguous Monte-Carlo run range
// [start, end) at rate psa and returns the per-run accuracies in run
// order (index 0 is run `start`). Run r draws its faults from
// fault.RunRNG(cfg.Seed, r) — position alone — so any partition of
// [0, cfg.Runs) into ranges, evaluated by any mix of processes, folds
// back into the exact value sequence EvalDefect produces in one
// process. This is the worker-side primitive of the distributed
// defect-eval layer (internal/dist); cfg.Seed should be the sweep's
// RateSeed for the rate being sharded.
//
// At psa == 0 there is no stochasticity and every run yields the same
// single clean pass, mirroring EvalDefect's rate-zero short-circuit.
// The network's weights are identical before and after the call. On
// cancellation the error is ctx's and the slice is nil.
func EvalDefectRuns(ctx context.Context, net *nn.Network, ds *data.Dataset, psa float64, start, end int, cfg DefectEval) ([]float64, error) {
	if start < 0 || end < start {
		return nil, fmt.Errorf("core: invalid run range [%d, %d)", start, end)
	}
	cfg = cfg.Normalize()
	if start == end {
		return nil, ctx.Err()
	}
	return evalRuns(ctx, net, ds, psa, start, end, cfg, nil)
}

// EvalDefectSweep evaluates the model across a list of testing fault
// rates, returning mean defect accuracy per rate — one Table I row.
// Each rate's Monte-Carlo loop is parallelized by EvalDefect (rates
// keep their independent derived seeds, so the sweep is bit-identical
// at any cfg.Workers). Worker network clones are pooled across the
// rates: the sweep clones at most cfg.Workers times total rather than
// per rate — a scheduling-only change, since every lesion is undone
// bitwise before a clone is reused.
//
// On cancellation the summaries of the rates completed so far are
// returned together with ctx's error; the in-flight rate is dropped.
func EvalDefectSweep(ctx context.Context, net *nn.Network, ds *data.Dataset, rates []float64, cfg DefectEval) ([]metrics.Summary, error) {
	cfg = cfg.Normalize()
	sink := cfg.Sink
	var pool *ClonePool
	if cfg.Workers > 1 && cfg.Runs > 1 {
		pool = NewClonePool(net, cfg.Scenario)
	}
	out := make([]metrics.Summary, 0, len(rates))
	for i, r := range rates {
		c := cfg
		c.Seed = cfg.RateSeed(i)
		s, err := evalDefect(ctx, net, ds, r, c, pool)
		if err != nil {
			return out, err
		}
		out = append(out, s)
		if sink.Enabled() {
			sink.Emit(obs.Event{Kind: obs.KindEvalRate, Rate: r, Acc: s.Mean, N: s.N})
		}
	}
	return out, nil
}

// EvalOnDevice deploys the network onto one fixed defective device and
// returns the resulting accuracy (weights restored afterwards). A map
// drawn for a different model is an error. A pre-cancelled ctx returns
// before the lesion is applied; cancellation is otherwise checked once
// up front — a single evaluation pass is the finest abort granularity
// the metrics layer offers.
func EvalOnDevice(ctx context.Context, net *nn.Network, ds *data.Dataset, dm *fault.DeviceMap, batch int) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	weights := WeightTensors(net)
	if err := dm.Check(weights); err != nil {
		return 0, err
	}
	lesion := dm.Apply(weights)
	defer lesion.Undo()
	return metrics.Evaluate(net, ds, batch), nil
}

// StabilityReport bundles the three accuracy stages of Figure 1 plus
// the Stability Scores at chosen rates — one Table II row.
type StabilityReport struct {
	AccPretrain float64
	AccRetrain  float64
	Rates       []float64
	AccDefect   []float64
	SS          []float64
}

// Stability computes a StabilityReport for a (possibly FT-retrained)
// network. accPretrain is the ideal accuracy of the original pretrained
// model the FT model was derived from. The per-rate defect runs are
// parallelized by EvalDefect under cfg.Workers with bit-identical
// results. On cancellation the partially filled report is returned
// together with ctx's error.
func Stability(ctx context.Context, net *nn.Network, ds *data.Dataset, accPretrain float64, rates []float64, cfg DefectEval) (StabilityReport, error) {
	cfg = cfg.Normalize()
	rep := StabilityReport{
		AccPretrain: accPretrain,
		AccRetrain:  EvalClean(net, ds, cfg.Batch),
		Rates:       rates,
	}
	for i, r := range rates {
		c := cfg
		c.Seed = cfg.Seed + uint64(i)*104_729
		s, err := EvalDefect(ctx, net, ds, r, c)
		if err != nil {
			return rep, err
		}
		rep.AccDefect = append(rep.AccDefect, s.Mean)
		rep.SS = append(rep.SS, metrics.StabilityScore(rep.AccRetrain, accPretrain, s.Mean))
	}
	return rep, nil
}
