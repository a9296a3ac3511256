package experiments

import (
	"context"
	"fmt"

	"github.com/ftpim/ftpim/internal/core"
	"github.com/ftpim/ftpim/internal/nn"
	"github.com/ftpim/ftpim/internal/report"
)

// Table1Row is one model's defect-accuracy sweep (a Table I row).
type Table1Row struct {
	Label     string
	Method    string  // "baseline", "oneshot", "progressive"
	TrainRate float64 // Psa^T (0 for baseline)
	Accs      []float64
}

// Table1Result reproduces one dataset half of Table I.
type Table1Result struct {
	Dataset     string
	PretrainAcc float64
	TestRates   []float64
	Rows        []Table1Row
}

// Table1 trains (or loads) the baseline plus a one-shot and a
// progressive FT model per training rate and sweeps them across the
// testing fault rates — the full Table I protocol for one dataset.
// On cancellation the partial result built so far is returned together
// with ctx's error.
func Table1(ctx context.Context, e *Env, ds string) (*Table1Result, error) {
	_, test := e.Dataset(ds)
	ev := e.DefectEval()

	res := &Table1Result{Dataset: ds, TestRates: e.Scale.TestRates}
	base, err := e.Pretrained(ctx, ds)
	if err != nil {
		return res, err
	}
	res.PretrainAcc = core.EvalClean(base, test, ev.Batch)

	e.logf("table1[%s]: evaluating baseline", ds)
	accs, err := sweepAccs(ctx, e, ds, base, ev)
	if err != nil {
		return res, err
	}
	res.Rows = append(res.Rows, Table1Row{
		Label: "Baseline Pretrained Model", Method: "baseline",
		Accs: accs,
	})
	for _, rate := range e.Scale.TrainRates {
		e.logf("table1[%s]: Psa^T=%g one-shot", ds, rate)
		net, err := e.OneShot(ctx, ds, rate)
		if err != nil {
			return res, err
		}
		if accs, err = sweepAccs(ctx, e, ds, net, ev); err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, Table1Row{
			Label:  fmt.Sprintf("One-Shot Psa^T=%g", rate),
			Method: "oneshot", TrainRate: rate,
			Accs: accs,
		})
		e.logf("table1[%s]: Psa^T=%g progressive", ds, rate)
		if net, err = e.Progressive(ctx, ds, rate); err != nil {
			return res, err
		}
		if accs, err = sweepAccs(ctx, e, ds, net, ev); err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, Table1Row{
			Label:  fmt.Sprintf("Progressive Psa^T=%g", rate),
			Method: "progressive", TrainRate: rate,
			Accs: accs,
		})
	}
	return res, nil
}

// sweepAccs evaluates a model across the testing rates (in percent).
func sweepAccs(ctx context.Context, e *Env, ds string, net *nn.Network, ev core.DefectEval) ([]float64, error) {
	_, test := e.Dataset(ds)
	sums, err := core.EvalDefectSweep(ctx, net, test, e.Scale.TestRates, ev)
	if err != nil {
		return nil, err
	}
	accs := make([]float64, len(sums))
	for i, s := range sums {
		accs[i] = s.Mean * 100
	}
	return accs, nil
}

// Table renders the result in the paper's layout, highlighting the
// top-3 defect accuracies per testing-rate column as Table I does.
func (r *Table1Result) Table() *report.Table {
	header := []string{"Method & Training Rate"}
	for _, rate := range r.TestRates {
		header = append(header, fmt.Sprintf("%g", rate))
	}
	t := report.NewTable(
		fmt.Sprintf("Table I (%s): defect accuracy %% vs testing stuck-at rate (pretrain acc %.2f%%)",
			r.Dataset, r.PretrainAcc*100),
		header...)
	for _, row := range r.Rows {
		cells := []string{row.Label}
		for _, a := range row.Accs {
			cells = append(cells, fmt.Sprintf("%.2f", a))
		}
		t.AddRow(cells...)
	}
	for col := 1; col <= len(r.TestRates); col++ {
		t.HighlightTopK(col, 3, report.ParsePercent)
	}
	return t
}
