package core_test

import (
	"fmt"
	"math"
	"testing"

	"github.com/ftpim/ftpim/internal/core"
	"github.com/ftpim/ftpim/internal/fault"
	"github.com/ftpim/ftpim/internal/obs"
)

// TestEvalDefectRunsMatchesEvalDefect pins the distributed layer's
// worker primitive to the in-process engine: EvalDefectRuns over any
// partition of [0, Runs), concatenated, equals EvalDefect's per-run
// accuracies (its eval.run events ordered by run) bit for bit, at
// every worker count, for a persistent and a transient scenario. At
// rate zero every entry is EvalDefect's single clean pass.
func TestEvalDefectRunsMatchesEvalDefect(t *testing.T) {
	net, test := presetFixture(t, "smoke")
	const runs = 6
	ranges := [][2]int{{0, 1}, {1, 4}, {4, runs}}
	for _, spec := range []string{"chen", "transient"} {
		for _, w := range []int{1, 2, 4} {
			for _, psa := range []float64{0, 0.05} {
				t.Run(fmt.Sprintf("%s/workers=%d/psa=%g", spec, w, psa), func(t *testing.T) {
					cfg := core.DefectEval{
						Runs: runs, Batch: 32, Seed: 42, Workers: w,
						Scenario: fault.MustParse(spec),
					}
					rec := &obs.Recorder{}
					withSink := cfg
					withSink.Sink = rec
					evalD(t, net, test, psa, withSink)
					byRun := map[int]float64{}
					for _, e := range rec.Events() {
						if e.Kind == obs.KindEvalRun {
							byRun[e.Run] = e.Acc
						}
					}
					want := make([]float64, runs)
					for r := range want {
						acc, ok := byRun[r+1]
						if psa == 0 {
							acc, ok = byRun[1]
						}
						if !ok {
							t.Fatalf("EvalDefect emitted no eval.run for run %d", r+1)
						}
						want[r] = acc
					}

					var got []float64
					for _, rg := range ranges {
						accs, err := core.EvalDefectRuns(ctxbg, net, test, psa, rg[0], rg[1], cfg)
						if err != nil {
							t.Fatalf("EvalDefectRuns[%d,%d): %v", rg[0], rg[1], err)
						}
						if len(accs) != rg[1]-rg[0] {
							t.Fatalf("EvalDefectRuns[%d,%d) returned %d accuracies", rg[0], rg[1], len(accs))
						}
						got = append(got, accs...)
					}
					for r := range want {
						if math.Float64bits(got[r]) != math.Float64bits(want[r]) {
							t.Fatalf("run %d: EvalDefectRuns %v != EvalDefect %v", r, got[r], want[r])
						}
					}
				})
			}
		}
	}

	cfg := core.DefectEval{Runs: runs, Batch: 32, Seed: 42, Workers: 2}
	accs, err := core.EvalDefectRuns(ctxbg, net, test, 0.05, 3, 3, cfg)
	if accs != nil || err != nil {
		t.Fatalf("empty range [3,3) = %v, %v; want nil, nil", accs, err)
	}
	if _, err := core.EvalDefectRuns(ctxbg, net, test, 0.05, 3, 1, cfg); err == nil {
		t.Fatal("reversed range [3,1) returned no error")
	}
}
