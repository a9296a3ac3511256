package main

import (
	"time"

	"github.com/ftpim/ftpim/internal/data"
	"github.com/ftpim/ftpim/internal/experiments"
	"github.com/ftpim/ftpim/internal/nn"
	"github.com/ftpim/ftpim/internal/tensor"
)

// runCtx is what every workload runner shares.
type runCtx struct {
	opt   options
	rep   *report
	nproc int
	model prepared
}

// seed derives a named seed from the workload seed, so every input a
// run generates is fixed by --seed alone.
func (rc *runCtx) seed(name string, n int) uint64 {
	return tensor.StreamSeedN(rc.opt.seed, name, n)
}

// pass is what one execution of a workload's timed work produced: its
// end-to-end numbers, and the state the per-layer probes run on.
type pass struct {
	setup   []time.Duration // one entry per setup repetition
	opsPerS float64         // see README.md: ops_per_s
	opMs    float64         // see README.md: op_ms
	named   []namedMetric   // the workload's own metrics, for the report
	work    time.Duration   // wall time of the timed work
	rssMiB  float64         // see README.md: peak_rss_mb

	// Probe inputs: the workload's lane, the float model (always
	// present for the float-only probes), its data, and the batch the
	// nn and tensor probes run at.
	env         *experiments.Env
	float       *nn.Network
	quant       *nn.QuantizedNetwork // int8 lane only
	train, test *data.Dataset
	batch       int
	release     func() // frees what the probes needed (nil: nothing)
}

func (p *pass) close() {
	if p.release != nil {
		p.release()
	}
}

// namedMetric is a workload metric printed in the human-readable report.
type namedMetric struct {
	name, unit string
	value      float64
}

// endToEnd returns the contract's end-to-end metrics for an untraced
// pass.
func (p *pass) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":     {medianDur(p.setup).Seconds(), "s"},
		"peak_rss_mb": {p.rssMiB, "MiB"},
		"ops_per_s":   {p.opsPerS, "1/s"},
		"op_ms":       {p.opMs, "ms"},
	}
}

func (p *pass) printNamed(rep *report) {
	rep.printf("timed work %.3f s", p.work.Seconds())
	rep.printf("setup_s %.6f s (median of %d)", medianDur(p.setup).Seconds(), len(p.setup))
	rep.printf("peak_rss_mb %.3f MiB", p.rssMiB)
	for _, m := range p.named {
		rep.printf("%s %.6g %s", m.name, m.value, m.unit)
	}
}
