package main

import (
	"context"
	"fmt"
	"net"
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
}

// runServe starts the HTTP serving front door. It binds -addr before
// loading the model, so a bad address fails before any training, and
// announces the address it actually bound (the kernel's choice for
// port 0). The model is the env's pretrained network for the dataset —
// cached like every other experiment artifact, so a warm cache serves
// within seconds of process start. Cancelling ctx (SIGTERM/SIGINT)
// stops admission, flushes in-flight micro-batches, and returns nil for
// a clean exit 0.
func runServe(ctx context.Context, env *experiments.Env, dataset string, o serveOpts) error {
	if dataset == "both" {
		dataset = "c10"
	}
	l, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	defer l.Close()
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
	var fnet *nn.Network
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
	} else if fnet, err = env.Pretrained(ctx, dataset); err != nil {
		return err
	}
	_, test := env.Dataset(dataset)
	s, err := serve.New(fnet, test, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ftpim: serving %s/%s on %s (max batch %d, window %s)\n",
		env.Scale.Name, dataset, l.Addr(), cfg.Normalize().MaxBatch, cfg.Normalize().BatchWindow)
	if err := s.Serve(ctx, l); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "ftpim: drained, exiting")
	return nil
}
