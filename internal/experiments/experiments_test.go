package experiments

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ftpim/ftpim/internal/fault"
	"github.com/ftpim/ftpim/internal/nn"
	"github.com/ftpim/ftpim/internal/reram"
)

// bg is the context for tests that never cancel.
var bg = context.Background()

func quickEnv(t *testing.T) *Env {
	t.Helper()
	return NewEnv("quick", "", nil)
}

// pretrained unwraps Env.Pretrained under a background context.
func pretrained(t *testing.T, e *Env, ds string) *nn.Network {
	t.Helper()
	net, err := e.Pretrained(bg, ds)
	if err != nil {
		t.Fatalf("Pretrained: %v", err)
	}
	return net
}

func TestScaleForKnownPresets(t *testing.T) {
	for _, p := range []string{"paper", "repro", "quick"} {
		s := ScaleFor(p)
		if s.Name != p {
			t.Fatalf("preset %s name mismatch", p)
		}
		if len(s.TestRates) == 0 || len(s.TrainRates) == 0 {
			t.Fatalf("preset %s missing rates", p)
		}
		if s.TestRates[0] != 0 {
			t.Fatalf("preset %s should include rate 0 first", p)
		}
	}
}

func TestScaleForUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ScaleFor("bogus")
}

// TestValidatePresetAndDataset: Validate accepts exactly the names
// ScaleFor and Env.Dataset accept, so a bad flag or job is an error
// and never a panic.
func TestValidatePresetAndDataset(t *testing.T) {
	for _, p := range []string{"paper", "repro", "smoke", "quick"} {
		for _, ds := range []string{"c10", "c100"} {
			if err := Validate(p, ds); err != nil {
				t.Fatalf("Validate(%q, %q): %v", p, ds, err)
			}
		}
	}
	for _, c := range [][2]string{{"bogus", "c10"}, {"", "c10"}, {"quick", "cifar10"}, {"quick", "C10"}, {"quick", ""}} {
		if err := Validate(c[0], c[1]); err == nil {
			t.Fatalf("Validate(%q, %q) accepted", c[0], c[1])
		}
	}
}

func TestDatasetCachedAndShaped(t *testing.T) {
	e := quickEnv(t)
	tr1, te1 := e.Dataset("c10")
	tr2, _ := e.Dataset("c10")
	if tr1 != tr2 {
		t.Fatal("dataset should be cached in memory")
	}
	if tr1.Classes != e.Scale.C10.Classes || te1.N() == 0 {
		t.Fatal("dataset misconfigured")
	}
}

func TestPretrainedLearnsAboveChance(t *testing.T) {
	e := quickEnv(t)
	_, test := e.Dataset("c10")
	net := pretrained(t, e, "c10")
	accs, err := sweepAccs(bg, e, "c10", net, e.DefectEval())
	if err != nil {
		t.Fatal(err)
	}
	acc := accs[0] // rate 0
	chance := 100.0 / float64(test.Classes)
	if acc < 3*chance {
		t.Fatalf("pretrained accuracy %.1f%% not well above chance %.1f%%", acc, chance)
	}
}

func TestPretrainedMemoized(t *testing.T) {
	e := quickEnv(t)
	if pretrained(t, e, "c10") != pretrained(t, e, "c10") {
		t.Fatal("Pretrained must be memoized")
	}
}

func TestDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e1 := NewEnv("quick", dir, nil)
	n1 := pretrained(t, e1, "c10")
	files, _ := filepath.Glob(filepath.Join(dir, "pretrain-c10-*.ftck"))
	if len(files) != 1 {
		t.Fatalf("expected one cache file, got %v", files)
	}
	e2 := NewEnv("quick", dir, nil)
	n2 := pretrained(t, e2, "c10")
	p1, p2 := n1.Params(), n2.Params()
	for i := range p1 {
		if !p1[i].W.Equal(p2[i].W) {
			t.Fatal("disk cache returned different weights")
		}
	}
}

func TestDiskCacheInvalidatedByScaleChange(t *testing.T) {
	dir := t.TempDir()
	e1 := NewEnv("quick", dir, nil)
	pretrained(t, e1, "c10")
	e2 := NewEnv("quick", dir, nil)
	e2.Scale.Seed++ // any scale change must miss the cache
	pretrained(t, e2, "c10")
	files, _ := filepath.Glob(filepath.Join(dir, "pretrain-c10-*.ftck"))
	if len(files) != 2 {
		t.Fatalf("expected two distinct cache files, got %v", files)
	}
}

func TestDiskCacheCorruptFileRetrains(t *testing.T) {
	dir := t.TempDir()
	e1 := NewEnv("quick", dir, nil)
	pretrained(t, e1, "c10")
	files, _ := filepath.Glob(filepath.Join(dir, "pretrain-c10-*.ftck"))
	if err := os.WriteFile(files[0], []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	e2 := NewEnv("quick", dir, nil)
	if pretrained(t, e2, "c10") == nil {
		t.Fatal("corrupt cache must retrain, not fail")
	}
}

// Every truncation and every single-bit flip of a cache file must be
// a miss that retrains, never a load. Under a canceled context the
// retrain returns at once, so Pretrained's error tells the two apart: a
// load returns the network, a retrain the cancellation. The file is
// damaged in place, one byte or one truncation at a time. Short mode
// (the race leg) flips one bit per byte, bit i%8 of byte i.
func TestDiskCacheRejectsEveryTruncationAndBitFlip(t *testing.T) {
	dir := t.TempDir()
	e := NewEnv("smoke", dir, nil)
	e.Scale.Width = 0.01 // the narrowest ResNet: the fewest bits to flip
	pretrained(t, e, "c10")
	files, _ := filepath.Glob(filepath.Join(dir, "*.ftck"))
	if len(files) != 1 {
		t.Fatalf("expected one cache file, got %v", files)
	}
	good, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(files[0], os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	canceled, cancel := context.WithCancel(bg)
	cancel()
	loads := func() bool {
		e.nets = map[string]*nn.Network{}
		_, err := e.Pretrained(canceled, "c10")
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("Pretrained: %v", err)
		}
		return err == nil
	}
	if !loads() {
		t.Fatal("an intact cache file must load")
	}
	for i := range good {
		for bit := 0; bit < 8; bit++ {
			if testing.Short() && bit != i%8 {
				continue
			}
			if _, err := f.WriteAt([]byte{good[i] ^ 1<<bit}, int64(i)); err != nil {
				t.Fatal(err)
			}
			if loads() {
				t.Fatalf("bit flip at byte %d bit %d loaded", i, bit)
			}
		}
		if _, err := f.WriteAt(good[i:i+1], int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for n := len(good) - 1; n >= 0; n-- {
		if err := f.Truncate(int64(n)); err != nil {
			t.Fatal(err)
		}
		if loads() {
			t.Fatalf("truncation to %d/%d bytes loaded", n, len(good))
		}
	}
}

func TestTable1ShapeAndBaselineCollapse(t *testing.T) {
	e := quickEnv(t)
	res, err := Table1(bg, e, "c10")
	if err != nil {
		t.Fatal(err)
	}
	wantRows := 1 + 2*len(e.Scale.TrainRates)
	if len(res.Rows) != wantRows {
		t.Fatalf("rows %d want %d", len(res.Rows), wantRows)
	}
	for _, r := range res.Rows {
		if len(r.Accs) != len(e.Scale.TestRates) {
			t.Fatal("row width mismatch")
		}
		for _, a := range r.Accs {
			if a < 0 || a > 100 {
				t.Fatalf("accuracy out of range: %v", a)
			}
		}
	}
	base := res.Rows[0]
	if base.Method != "baseline" {
		t.Fatal("first row must be baseline")
	}
	last := len(base.Accs) - 1
	if base.Accs[0] <= base.Accs[last] {
		t.Fatalf("baseline should collapse from %.1f to below it, got %.1f", base.Accs[0], base.Accs[last])
	}
	// The best model at the harshest rate should be an FT model.
	beaten := false
	for _, row := range res.Rows[1:] {
		beaten = beaten || row.Accs[last] > base.Accs[last]
	}
	if !beaten {
		t.Fatalf("baseline should not win at rate %g", e.Scale.TestRates[last])
	}
}

func TestTable1Render(t *testing.T) {
	e := quickEnv(t)
	res, err := Table1(bg, e, "c10")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	res.Table().Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "Table I") || !strings.Contains(out, "Baseline") {
		t.Fatalf("render broken:\n%s", out)
	}
	if !strings.Contains(out, "*") {
		t.Fatal("expected top-3 highlights")
	}
}

func TestFigure2ShapesAndPrunedFragility(t *testing.T) {
	e := quickEnv(t)
	res, err := Figure2(bg, e, "c10")
	if err != nil {
		t.Fatal(err)
	}
	want := 1 + 2*len(e.Scale.Sparsities)
	if len(res.Series) != want {
		t.Fatalf("series %d want %d", len(res.Series), want)
	}
	for _, s := range res.Series {
		if len(s.Y) != len(e.Scale.TestRates) {
			t.Fatal("series width mismatch")
		}
	}
	// Every model should degrade from rate 0 to the harshest rate.
	last := len(e.Scale.TestRates) - 1
	for _, s := range res.Series {
		if s.Y[0] <= s.Y[last] {
			t.Fatalf("series %s does not degrade (%.1f -> %.1f)", s.Name, s.Y[0], s.Y[last])
		}
	}
	if csv := res.CSV(); !strings.Contains(csv, "dense") {
		t.Fatal("CSV missing series")
	}
	if plot := res.Plot(); !strings.Contains(plot, "Figure 2") {
		t.Fatal("plot missing title")
	}
}

func TestTable2ShapeAndFTDominance(t *testing.T) {
	e := quickEnv(t)
	res, err := Table2(bg, e)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sections) != 2 {
		t.Fatalf("sections %d", len(res.Sections))
	}
	for _, sec := range res.Sections {
		if len(sec.Rows) != 1+2*len(table2FTRates) {
			t.Fatalf("section rows %d", len(sec.Rows))
		}
		base := sec.Rows[0]
		for _, row := range sec.Rows {
			if len(row.AccDefect) != len(res.SSRates) || len(row.SS) != len(res.SSRates) {
				t.Fatalf("row %q has wrong width", row.Label)
			}
			for _, a := range row.AccDefect {
				if a < 0 || a > 100 {
					t.Fatalf("row %q defect acc out of range: %v", row.Label, a)
				}
			}
		}
		// At least one FT variant must beat the non-FT baseline's defect
		// accuracy at the first SS rate (the quick preset's budget is too
		// small for every variant to dominate; the repro preset checks
		// the full ordering in EXPERIMENTS.md).
		bestFT := 0.0
		for _, row := range sec.Rows[1:] {
			if row.AccDefect[0] > bestFT {
				bestFT = row.AccDefect[0]
			}
		}
		if bestFT < base.AccDefect[0] {
			t.Fatalf("no FT variant beats baseline defect acc %.1f (best %.1f)",
				base.AccDefect[0], bestFT)
		}
	}
	var sb strings.Builder
	res.Table().Render(&sb)
	if !strings.Contains(sb.String(), "Table II") {
		t.Fatal("render broken")
	}
}

func TestAblationLadderRows(t *testing.T) {
	e := quickEnv(t)
	rows, err := AblationLadder(bg, e, "c10", 0.1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows %d", len(rows))
	}
	if rows[0].Rungs != 1 || len(rows[0].Ladder) != 1 {
		t.Fatal("first row must be one-shot")
	}
	if len(rows[1].Ladder) != 2 {
		t.Fatal("second row must have 2 rungs")
	}
	var sb strings.Builder
	LadderTable(rows, 0.1).Render(&sb)
	if !strings.Contains(sb.String(), "A1") {
		t.Fatal("ladder table render broken")
	}
}

func TestAblationResample(t *testing.T) {
	e := quickEnv(t)
	res, err := AblationResample(bg, e, "c10", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{res.PerEpochCleanAcc, res.PerBatchCleanAcc, res.PerEpochDefectAcc, res.PerBatchDefectAcc} {
		if v < 0 || v > 100 {
			t.Fatalf("out of range: %+v", res)
		}
	}
}

func TestAblationCrossbarConsistency(t *testing.T) {
	e := quickEnv(t)
	opts := reram.MapOptions{TileRows: 32, TileCols: 32, Levels: 0, Gmin: 0.1, Gmax: 10}
	res, err := AblationCrossbar(bg, e, "c10", 0.05, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Continuous, fault-free mapping must match digital accuracy.
	if diff := res.QuantizedAcc - res.CleanAcc; diff > 1 || diff < -1 {
		t.Fatalf("analog fault-free accuracy %.2f vs digital %.2f", res.QuantizedAcc, res.CleanAcc)
	}
	// The weight-level model abstracts the circuit one; at matched psa
	// the two defect accuracies should be in the same regime. The
	// circuit model injects faults into 2 cells per weight (differential
	// pair), so it is somewhat harsher; allow a wide band.
	if d := res.CircuitAcc - res.WeightLevelAcc; d > 25 || d < -25 {
		t.Fatalf("circuit (%.1f) vs weight-level (%.1f) disagree wildly", res.CircuitAcc, res.WeightLevelAcc)
	}
}

// TestScenarioSweepRowsAndTable: the sweep measures each FT scheme
// under each scenario, one defect accuracy and Stability Score per
// rate, and renders one row each.
func TestScenarioSweepRowsAndTable(t *testing.T) {
	e := NewEnv("smoke", "", nil)
	specs := []string{"chen", "cluster"}
	res, err := ScenarioSweep(bg, e, "c10", specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3*len(specs) || len(res.Rates) == 0 {
		t.Fatalf("%d rows over %d rates, want %d rows", len(res.Rows), len(res.Rates), 3*len(specs))
	}
	methods := []string{"Baseline", "One-Shot", "Drop-Connect"}
	for i, row := range res.Rows {
		sc, err := fault.Parse(specs[i%len(specs)])
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(row.Method, methods[i/len(specs)]) || row.Scenario != sc.Spec() ||
			len(row.AccDefect) != len(res.Rates) || len(row.SS) != len(res.Rates) {
			t.Fatalf("row %d: %+v, want method %s under %s", i, row, methods[i/len(specs)], sc.Spec())
		}
	}
	var sb strings.Builder
	res.Table().Render(&sb)
	out := sb.String()
	for _, s := range []string{"Fault-scenario sweep (c10)", "Baseline (no FT)", "One-Shot", "Drop-Connect", "cluster"} {
		if !strings.Contains(out, s) {
			t.Fatalf("rendered sweep lacks %q:\n%s", s, out)
		}
	}
	if _, err := ScenarioSweep(bg, e, "c10", []string{"nosuch"}); err == nil {
		t.Fatal("an unknown scenario spec was accepted")
	}
}
