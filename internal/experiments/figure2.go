package experiments

import (
	"context"
	"fmt"
	"strings"

	"github.com/ftpim/ftpim/internal/nn"
	"github.com/ftpim/ftpim/internal/report"
)

// Figure2Result reproduces one panel of Figure 2: accuracy of the
// dense model and its pruned variants (no FT training) across testing
// fault rates.
type Figure2Result struct {
	Dataset   string
	TestRates []float64
	Series    []report.Series // Y in percent
}

// Figure2 evaluates the dense pretrained model plus one-shot-pruned and
// ADMM-pruned variants at every configured sparsity, without any
// fault-tolerant training — the paper's Figure 2 for one dataset.
// On cancellation the series completed so far are returned together
// with ctx's error.
func Figure2(ctx context.Context, e *Env, ds string) (*Figure2Result, error) {
	ev := e.DefectEval()
	res := &Figure2Result{Dataset: ds, TestRates: e.Scale.TestRates}

	add := func(name string, net *nn.Network) error {
		accs, err := sweepAccs(ctx, e, ds, net, ev)
		if err != nil {
			return err
		}
		res.Series = append(res.Series, report.Series{Name: name, X: e.Scale.TestRates, Y: accs})
		return nil
	}

	e.logf("figure2[%s]: dense", ds)
	dense, err := e.Pretrained(ctx, ds)
	if err != nil {
		return res, err
	}
	if err := add("dense", dense); err != nil {
		return res, err
	}
	for _, sp := range e.Scale.Sparsities {
		e.logf("figure2[%s]: one-shot pruned %.0f%%", ds, sp*100)
		net, err := e.PrunedMagnitude(ctx, ds, sp)
		if err != nil {
			return res, err
		}
		if err := add(fmt.Sprintf("oneshot-pruned-%.0f%%", sp*100), net); err != nil {
			return res, err
		}
		e.logf("figure2[%s]: ADMM pruned %.0f%%", ds, sp*100)
		if net, err = e.PrunedADMM(ctx, ds, sp); err != nil {
			return res, err
		}
		if err := add(fmt.Sprintf("admm-pruned-%.0f%%", sp*100), net); err != nil {
			return res, err
		}
	}
	return res, nil
}

// Plot renders the panel as an ASCII chart.
func (r *Figure2Result) Plot() string {
	var sb strings.Builder
	report.AsciiPlot(&sb, fmt.Sprintf("Figure 2 (%s): accuracy %% vs testing failure rate (no FT training)", r.Dataset), r.Series, 40)
	return sb.String()
}

// CSV renders the series as CSV.
func (r *Figure2Result) CSV() string {
	var sb strings.Builder
	report.SeriesCSV(&sb, r.Series)
	return sb.String()
}
