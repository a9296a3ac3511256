package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"github.com/ftpim/ftpim/internal/experiments"
	"github.com/ftpim/ftpim/internal/ftpm"
	"github.com/ftpim/ftpim/internal/nn"
	"github.com/ftpim/ftpim/internal/serve"
)

// serveOpts carries the serve-specific flag values from run().
type serveOpts struct {
	addr        string
	maxBatch    int
	batchWindow time.Duration
	queue       int
	executors   int
	model       string // FTPM file to serve instead of the trained float model
	loadtest    bool
	ltClients   int
	ltRequests  int
	ltEvalEvery int
	benchOut    string
}

// runServe starts the HTTP serving front door (or, with -loadtest,
// drives an in-process load test against it and records the results).
// The model is the env's pretrained network for the dataset — cached
// like every other experiment artifact, so a warm cache serves within
// seconds of process start. Cancelling ctx (SIGTERM/SIGINT) stops
// admission, flushes in-flight micro-batches, and returns nil for a
// clean exit 0.
func runServe(ctx context.Context, env *experiments.Env, dataset string, o serveOpts) error {
	if dataset == "both" {
		dataset = "c10"
	}
	cfg := serve.Config{
		MaxBatch:    o.maxBatch,
		BatchWindow: o.batchWindow,
		QueueDepth:  o.queue,
		Executors:   o.executors,
		Eval:        env.DefectEval(),
		Sink:        env.Sink,
	}
	// With -model the process never touches training or the model cache:
	// the exported FTPM file is mmap'd and its int8 weights serve
	// directly from the page cache. Monte-Carlo endpoints need mutable
	// float planes and answer 501 in this mode.
	var net *nn.Network
	if o.model != "" {
		m, err := ftpm.Load(o.model)
		if err != nil {
			return err
		}
		defer m.Close()
		cfg.Quantized = m.Net
		cfg.ModelFormat = ftpm.FormatName
		src := "read"
		if m.Mapped {
			src = "mmap"
		}
		fmt.Fprintf(os.Stderr, "ftpim: loaded %s (%s/%s, %s) zero-copy via %s\n",
			o.model, m.Meta.Model, m.Meta.Dataset, ftpm.FormatName, src)
	} else {
		var err error
		if net, err = env.Pretrained(ctx, dataset); err != nil {
			return err
		}
	}
	_, test := env.Dataset(dataset)
	s, err := serve.New(net, test, cfg)
	if err != nil {
		return err
	}

	if o.loadtest {
		img := make([]float32, func() int { c, h, w := test.Dims(); return c * h * w }())
		test.Example(0, img)
		fmt.Fprintf(os.Stderr, "ftpim: load test: %d clients x %d requests against %s/%s\n",
			o.ltClients, o.ltRequests, env.Scale.Name, dataset)
		res, err := serve.Load(s.Handler(), serve.LoadOptions{
			Clients:   o.ltClients,
			Requests:  o.ltRequests,
			Image:     img,
			EvalEvery: o.ltEvalEvery,
		})
		s.Drain()
		if err != nil {
			return err
		}
		fmt.Printf("load test: %d ok (%d infer, %d defect-eval), %d retried 429s, %d errors\n",
			res.Requests, res.Infer, res.Evals, res.Rejected, res.Errors)
		fmt.Printf("latency: p50 %.2fms  p90 %.2fms  p99 %.2fms  max %.2fms\n",
			res.P50ms, res.P90ms, res.P99ms, res.MaxMs)
		fmt.Printf("throughput: %.1f req/s over %.2fs, mean batch %.2f\n",
			res.Throughput, res.Seconds, res.MeanBatch)
		if o.benchOut != "" {
			if err := serve.WriteBench(o.benchOut, env.Scale.Name, cfg, o.ltClients, o.ltRequests, res); err != nil {
				return fmt.Errorf("write %s: %v", o.benchOut, err)
			}
			fmt.Printf("wrote %s\n", o.benchOut)
		}
		return nil
	}

	fmt.Fprintf(os.Stderr, "ftpim: serving %s/%s on %s (max batch %d, window %s)\n",
		env.Scale.Name, dataset, o.addr, cfg.Normalize().MaxBatch, cfg.Normalize().BatchWindow)
	if err := s.Run(ctx, o.addr); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "ftpim: drained, exiting")
	return nil
}
