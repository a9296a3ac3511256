package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"github.com/ftpim/ftpim/internal/core"
	"github.com/ftpim/ftpim/internal/data"
	"github.com/ftpim/ftpim/internal/dist"
	"github.com/ftpim/ftpim/internal/dist/backoff"
	"github.com/ftpim/ftpim/internal/experiments"
	"github.com/ftpim/ftpim/internal/fault"
	"github.com/ftpim/ftpim/internal/metrics"
	"github.com/ftpim/ftpim/internal/nn"
	"github.com/ftpim/ftpim/internal/obs"
	"github.com/ftpim/ftpim/internal/report"
)

// distOpts carries the coordinator/worker flag values from run().
type distOpts struct {
	addr          string        // coordinator: listen address
	connect       string        // worker: coordinator address
	workerID      string        // worker: pool id ("" = host-pid)
	leaseRuns     int           // coordinator: Monte-Carlo runs per lease
	leaseTTL      time.Duration // coordinator: heartbeat deadline
	fallbackAfter time.Duration // coordinator: empty-pool patience before in-process fallback
	runs          int           // override the preset's Monte-Carlo runs (0 = preset default)
	slowMs        int           // worker: artificial per-lease delay (chaos/CI aid)
}

// runCoordinator shards the preset's defect sweep over TCP workers
// and renders the folded per-rate table — byte-identical to what
// single-process `ftpim table1` math would produce for the same
// model, rates, and runs, at any worker count and under any worker
// kill schedule. SIGTERM drains cleanly: the fully-completed rate
// prefix is rendered and the process exits 0.
func runCoordinator(ctx context.Context, env *experiments.Env, dataset string, o distOpts) error {
	if dataset == "both" {
		dataset = "c10"
	}
	net, err := env.Pretrained(ctx, dataset)
	if err != nil {
		return err
	}
	_, test := env.Dataset(dataset)
	eval := env.DefectEval()
	if o.runs > 0 {
		eval.Runs = o.runs
	}
	eval = eval.Normalize()
	cfg := dist.Config{
		LeaseRuns:     o.leaseRuns,
		LeaseTTL:      o.leaseTTL,
		FallbackAfter: o.fallbackAfter,
		Eval:          eval,
		Rates:         env.Scale.TestRates,
		Job:           dist.Job{Preset: env.Scale.Name, Dataset: dataset},
		Sink:          env.Sink,
		Local:         dist.LocalFunc(leaseEval(net, test, eval)),
	}
	if env.Ckpt != nil {
		cfg.Ckpt = env.Ckpt.Run("dist-" + env.Scale.Name + "-" + dataset)
	}
	co, err := dist.New(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ftpim: coordinating %s/%s defect sweep on %s (%d rates x %d runs, lease %d)\n",
		env.Scale.Name, dataset, o.addr, len(cfg.Rates), eval.Runs, cfg.Normalize().LeaseRuns)
	sums, serr := co.Run(ctx, o.addr)
	renderSweep(env.Scale.TestRates, sums)
	if serr != nil {
		if errors.Is(serr, context.Canceled) {
			// Graceful degradation under SIGTERM: partial results above,
			// clean exit below.
			fmt.Fprintf(os.Stderr, "ftpim: coordinator drained with %d/%d rate(s) complete\n",
				len(sums), len(cfg.Rates))
			return nil
		}
		return serr
	}
	if cfg.Ckpt != nil {
		cfg.Ckpt.Clear() // sweep finished; its checkpoints are dead weight
	}
	return nil
}

// renderSweep prints the folded per-rate table for however many rates
// completed.
func renderSweep(rates []float64, sums []metrics.Summary) {
	if len(sums) == 0 {
		return
	}
	t := report.NewTable("distributed defect sweep",
		"Psa", "mean acc %", "std %", "min %", "max %", "runs")
	for i, s := range sums {
		t.AddRow(fmt.Sprintf("%g", rates[i]),
			f2(s.Mean*100), f2(s.Std*100), f2(s.Min*100), f2(s.Max*100),
			fmt.Sprintf("%d", s.N))
	}
	t.Render(os.Stdout)
}

// runWorker joins a coordinator's pool and evaluates leases until the
// sweep completes. The job frame tells the worker which preset and
// dataset to reproduce; training is deterministic, so the worker's
// model (cached or retrained) is bit-identical to the coordinator's.
// Dial failures retry under jittered exponential backoff; SIGTERM
// exits 0.
func runWorker(ctx context.Context, env *experiments.Env, o distOpts) error {
	if o.connect == "" {
		return errors.New("worker needs -connect HOST:PORT")
	}
	cfg := dist.WorkerConfig{
		Addr: o.connect,
		ID:   o.workerID,
		Dial: backoff.Policy{
			Base: 200 * time.Millisecond, Max: 5 * time.Second, Attempts: 30,
		},
		Sink:  env.Sink,
		Setup: workerSetup(env, time.Duration(o.slowMs)*time.Millisecond),
	}
	err := dist.RunWorker(ctx, cfg)
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "ftpim: worker interrupted, exiting")
		return nil
	}
	return err
}

// workerSetup resolves a coordinator's job into the worker's lease
// evaluator. The job arrives over the network, so its preset and
// dataset are validated before anything is built from them. slow, when
// positive, delays each lease (a failover-testing aid).
func workerSetup(env *experiments.Env, slow time.Duration) func(context.Context, dist.Job) (dist.EvalFunc, error) {
	return func(ctx context.Context, job dist.Job) (dist.EvalFunc, error) {
		if err := experiments.Validate(job.Preset, job.Dataset); err != nil {
			return nil, fmt.Errorf("job: %w", err)
		}
		sc, err := fault.Parse(job.Scenario)
		if err != nil {
			return nil, fmt.Errorf("job scenario: %w", err)
		}
		wenv := experiments.NewEnv(job.Preset, env.CacheDir, env.Sink)
		wenv.Scale.Workers = env.Scale.Workers
		obs.Logf(env.Sink, "worker: preparing %s/%s model", job.Preset, job.Dataset)
		net, err := wenv.Pretrained(ctx, job.Dataset)
		if err != nil {
			return nil, err
		}
		_, test := wenv.Dataset(job.Dataset)
		eval := wenv.DefectEval()
		eval.Runs = job.Runs
		eval.Batch = job.Batch
		eval.Scenario = sc
		fn := leaseEval(net, test, eval)
		return func(ctx context.Context, l dist.Lease) ([]float64, error) {
			if slow > 0 {
				select {
				case <-time.After(slow):
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return fn(ctx, l)
		}, nil
	}
}

// leaseEval evaluates a lease's run range on net at the lease's rate
// and rate seed, under eval's protocol — the one adapter from the dist
// protocol to core.EvalDefectRuns, for the coordinator's in-process
// fallback and for workers alike.
func leaseEval(net *nn.Network, test *data.Dataset, eval core.DefectEval) dist.EvalFunc {
	return func(ctx context.Context, l dist.Lease) ([]float64, error) {
		c := eval
		c.Seed = l.Seed
		return core.EvalDefectRuns(ctx, net, test, l.Rate, l.Start, l.End, c)
	}
}
