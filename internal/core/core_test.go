package core

import (
	"context"
	"math"
	"testing"

	"github.com/ftpim/ftpim/internal/data"
	"github.com/ftpim/ftpim/internal/fault"
	"github.com/ftpim/ftpim/internal/metrics"
	"github.com/ftpim/ftpim/internal/models"
	"github.com/ftpim/ftpim/internal/nn"
	"github.com/ftpim/ftpim/internal/prune"
	"github.com/ftpim/ftpim/internal/tensor"
)

// bg is the context for tests that never cancel.
var bg = context.Background()

// testTask returns a small, easily learnable task and a fresh model.
func testTask() (*data.Dataset, *data.Dataset) {
	cfg := data.SynthConfig{
		Classes: 4, TrainPer: 40, TestPer: 25,
		Channels: 3, Size: 8, Basis: 10,
		NoiseStd: 0.25, ShiftMax: 1, JitterStd: 0.1,
		Seed: 31,
	}
	return data.Generate(cfg)
}

func testModel(seed uint64) *nn.Network {
	return models.BuildSimpleCNN(models.SimpleCNNConfig{InChannels: 3, Width: 4, Classes: 4, Seed: seed})
}

func quickCfg() Config {
	return Config{
		Epochs: 8, Batch: 16, LR: 0.05, Momentum: 0.9, WeightDecay: 1e-4,
		Aug:  data.Augment{Flip: true, ShiftMax: 1},
		Seed: 5,
	}
}

// mustTrain runs Train under a background context, failing the test on
// an (impossible without cancellation) error.
func mustTrain(t *testing.T, net *nn.Network, ds *data.Dataset, cfg Config) *Result {
	t.Helper()
	res, err := Train(bg, net, ds, cfg)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	return res
}

// mustEvalDefect runs EvalDefect under a background context.
func mustEvalDefect(t *testing.T, net *nn.Network, ds *data.Dataset, psa float64, cfg DefectEval) metrics.Summary {
	t.Helper()
	s, err := EvalDefect(bg, net, ds, psa, cfg)
	if err != nil {
		t.Fatalf("EvalDefect: %v", err)
	}
	return s
}

func TestTrainLearns(t *testing.T) {
	train, test := testTask()
	net := testModel(1)
	before := metrics.Evaluate(net, test, 64)
	res := mustTrain(t, net, train, quickCfg())
	after := metrics.Evaluate(net, test, 64)
	if after < 0.7 {
		t.Fatalf("test accuracy %.3f after training (was %.3f) — did not learn", after, before)
	}
	if res.History[len(res.History)-1].Loss >= res.History[0].Loss {
		t.Fatal("loss did not decrease")
	}
	if res.FinalLoss() != res.History[len(res.History)-1].Loss {
		t.Fatal("FinalLoss accessor wrong")
	}
}

func TestTrainDeterministic(t *testing.T) {
	train, _ := testTask()
	cfg := quickCfg()
	cfg.Epochs = 3
	a, b := testModel(1), testModel(1)
	ra := mustTrain(t, a, train, cfg)
	rb := mustTrain(t, b, train, cfg)
	for i := range ra.History {
		if ra.History[i].Loss != rb.History[i].Loss {
			t.Fatal("same seed must reproduce the training trace exactly")
		}
	}
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		if !pa[i].W.Equal(pb[i].W) {
			t.Fatal("weights diverged across identical runs")
		}
	}
}

func TestTrainBadConfigPanics(t *testing.T) {
	train, _ := testTask()
	for _, cfg := range []Config{
		{Epochs: 0, Batch: 8, LR: 0.1},
		{Epochs: 1, Batch: 0, LR: 0.1},
		{Epochs: 1, Batch: 8, LR: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for %+v", cfg)
				}
			}()
			Train(bg, testModel(1), train, cfg)
		}()
	}
}

func TestFTTrainingLearnsUnderFaults(t *testing.T) {
	train, test := testTask()
	net := testModel(2)
	cfg := quickCfg()
	if _, err := OneShotFT(bg, net, train, cfg, 0.05); err != nil {
		t.Fatal(err)
	}
	acc := metrics.Evaluate(net, test, 64)
	if acc < 0.6 {
		t.Fatalf("FT training collapsed: clean acc %.3f", acc)
	}
}

// TestFTBeatsBaselineUnderFaults is the paper's headline claim at unit
// scale: under a substantial fault rate, the FT-retrained model must be
// clearly more accurate than the plain pretrained model. Per Algorithm
// 1, FT training starts from a well-trained model.
func TestFTBeatsBaselineUnderFaults(t *testing.T) {
	train, test := testTask()
	psaTest := 0.2
	ev := DefectEval{Runs: 10, Batch: 64, Seed: 77}

	base := testModel(3)
	mustTrain(t, base, train, quickCfg())
	baseDefect := mustEvalDefect(t, base, test, psaTest, ev).Mean

	ft := testModel(3)
	if err := ft.Restore(base.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if _, err := OneShotFT(bg, ft, train, quickCfg(), 0.2); err != nil {
		t.Fatal(err)
	}
	ftDefect := mustEvalDefect(t, ft, test, psaTest, ev).Mean

	if ftDefect <= baseDefect+0.05 {
		t.Fatalf("FT model (%.3f) should clearly beat baseline (%.3f) under %.0f%% faults",
			ftDefect, baseDefect, psaTest*100)
	}
}

func TestEvalDefectRestoresWeights(t *testing.T) {
	train, test := testTask()
	net := testModel(4)
	cfg := quickCfg()
	cfg.Epochs = 2
	mustTrain(t, net, train, cfg)
	snap := net.Snapshot()
	mustEvalDefect(t, net, test, 0.1, DefectEval{Runs: 3, Batch: 64, Seed: 9})
	after := net.Snapshot()
	if string(snap) != string(after) {
		t.Fatal("EvalDefect must leave weights untouched")
	}
}

func TestEvalDefectZeroRateEqualsClean(t *testing.T) {
	train, test := testTask()
	net := testModel(5)
	cfg := quickCfg()
	cfg.Epochs = 2
	mustTrain(t, net, train, cfg)
	clean := EvalClean(net, test, 64)
	s := mustEvalDefect(t, net, test, 0, DefectEval{Runs: 5, Batch: 64})
	if s.Mean != clean || s.N != 1 || s.Std != 0 {
		t.Fatalf("zero-rate defect eval should be one clean pass: %+v vs %v", s, clean)
	}
}

func TestEvalDefectDegradesWithRate(t *testing.T) {
	train, test := testTask()
	net := testModel(6)
	mustTrain(t, net, train, quickCfg())
	ev := DefectEval{Runs: 6, Batch: 64, Seed: 3}
	low := mustEvalDefect(t, net, test, 0.005, ev).Mean
	high := mustEvalDefect(t, net, test, 0.3, ev).Mean
	if high >= low {
		t.Fatalf("accuracy should degrade with fault rate: %.3f @0.005 vs %.3f @0.3", low, high)
	}
}

func TestEvalDefectSweep(t *testing.T) {
	train, test := testTask()
	net := testModel(7)
	cfg := quickCfg()
	cfg.Epochs = 2
	mustTrain(t, net, train, cfg)
	rates := []float64{0, 0.01, 0.2}
	sums, err := EvalDefectSweep(bg, net, test, rates, DefectEval{Runs: 3, Batch: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 3 {
		t.Fatal("sweep length mismatch")
	}
	if sums[0].Mean <= sums[2].Mean {
		t.Fatalf("sweep should degrade: %v", sums)
	}
}

func TestLadder(t *testing.T) {
	l := Ladder(0.05, 10)
	want := []float64{0.005, 0.01, 0.02, 0.05}
	if len(l) != len(want) {
		t.Fatalf("ladder %v", l)
	}
	for i := range want {
		if l[i] != want[i] {
			t.Fatalf("ladder %v want %v", l, want)
		}
	}
	// maxRungs truncation keeps the rungs nearest the target.
	l = Ladder(0.1, 3)
	want = []float64{0.02, 0.05, 0.1}
	for i := range want {
		if l[i] != want[i] {
			t.Fatalf("truncated ladder %v want %v", l, want)
		}
	}
	// Non-candidate target still ends the ladder.
	l = Ladder(0.03, 3)
	if l[len(l)-1] != 0.03 {
		t.Fatalf("ladder must end at target: %v", l)
	}
	for i := 1; i < len(l); i++ {
		if l[i] <= l[i-1] {
			t.Fatalf("ladder not ascending: %v", l)
		}
	}
}

func TestProgressiveFTHistoryAndLearning(t *testing.T) {
	train, test := testTask()
	net := testModel(8)
	cfg := quickCfg()
	res, err := ProgressiveFT(bg, net, train, cfg, []float64{0.01, 0.05}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 6 {
		t.Fatalf("history length %d, want 6", len(res.History))
	}
	if res.History[0].FaultRate != 0.01 || res.History[5].FaultRate != 0.05 {
		t.Fatal("stage rates wrong")
	}
	for i, st := range res.History {
		if st.Epoch != i {
			t.Fatal("epoch renumbering wrong")
		}
	}
	if acc := metrics.Evaluate(net, test, 64); acc < 0.55 {
		t.Fatalf("progressive FT collapsed: %.3f", acc)
	}
}

func TestProgressiveEmptyLadderPanics(t *testing.T) {
	train, _ := testTask()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ProgressiveFT(bg, testModel(1), train, quickCfg(), nil, 1)
}

func TestFaultAwareRetrainHelpsOwnDeviceOnly(t *testing.T) {
	train, test := testTask()
	net := testModel(9)
	mustTrain(t, net, train, quickCfg())

	rng := tensor.NewRNG(123)
	weights := WeightTensors(net)
	dev := fault.DrawDeviceMap(rng.Stream("devA"), fault.ChenModel(), weights, 0.08)

	before, _ := EvalOnDevice(bg, net, test, dev, 64)
	cfg := quickCfg()
	cfg.Epochs = 6
	if _, err := FaultAwareRetrain(bg, net, train, cfg, dev); err != nil {
		t.Fatal(err)
	}
	after, _ := EvalOnDevice(bg, net, test, dev, 64)
	if after <= before {
		t.Fatalf("device-specific retraining should help its own device: %.3f -> %.3f", before, after)
	}
}

func TestEvalOnDeviceRestores(t *testing.T) {
	train, test := testTask()
	net := testModel(10)
	cfg := quickCfg()
	cfg.Epochs = 2
	mustTrain(t, net, train, cfg)
	snap := net.Snapshot()
	dev := fault.DrawDeviceMap(tensor.NewRNG(5).Stream("d"), fault.ChenModel(), WeightTensors(net), 0.1)
	EvalOnDevice(bg, net, test, dev, 64)
	if string(net.Snapshot()) != string(snap) {
		t.Fatal("EvalOnDevice must restore weights")
	}
}

// A profile read from disk may have been drawn for another model: the
// device entry points must return an error rather than panic in Apply,
// and leave the network untouched.
func TestDeviceEntryPointsRejectForeignProfile(t *testing.T) {
	train, test := testTask()
	net := testModel(11)
	other := models.BuildSimpleCNN(models.SimpleCNNConfig{InChannels: 3, Width: 8, Classes: 4, Seed: 11})
	foreign := fault.DrawDeviceMap(tensor.NewRNG(6).Stream("d"), fault.ChenModel(), WeightTensors(other), 0.1)
	short := fault.DrawDeviceMap(tensor.NewRNG(6).Stream("d"), fault.ChenModel(), WeightTensors(net)[1:], 0.1)
	snap := net.Snapshot()
	for _, dm := range []*fault.DeviceMap{foreign, short} {
		if _, err := EvalOnDevice(bg, net, test, dm, 64); err == nil {
			t.Fatal("EvalOnDevice accepted a profile drawn for another model")
		}
		if _, err := FaultAwareRetrain(bg, net, train, quickCfg(), dm); err == nil {
			t.Fatal("FaultAwareRetrain accepted a profile drawn for another model")
		}
	}
	if string(net.Snapshot()) != string(snap) {
		t.Fatal("a rejected profile changed the network")
	}
}

func TestADMMTrainingProducesSparseAccurateModel(t *testing.T) {
	train, test := testTask()
	net := testModel(11)
	mustTrain(t, net, train, quickCfg()) // pretrain

	admm := prune.NewADMM(net.WeightParams(), 0.5, 0.01)
	cfg := quickCfg()
	cfg.Epochs = 6
	cfg.ADMM = admm
	cfg.ADMMInterval = 2
	mustTrain(t, net, train, cfg)
	admm.Finalize()

	if sp := net.Sparsity(); math.Abs(sp-0.5) > 0.05 {
		t.Fatalf("sparsity %.3f, want ≈0.5", sp)
	}
	// Fine-tune with masks fixed.
	ft := quickCfg()
	ft.Epochs = 4
	mustTrain(t, net, train, ft)
	if sp := net.Sparsity(); math.Abs(sp-0.5) > 0.05 {
		t.Fatalf("fine-tuning must preserve sparsity, got %.3f", sp)
	}
	if acc := metrics.Evaluate(net, test, 64); acc < 0.6 {
		t.Fatalf("pruned model accuracy %.3f too low", acc)
	}
}

func TestStabilityReportOrdering(t *testing.T) {
	train, test := testTask()
	base := testModel(12)
	mustTrain(t, base, train, quickCfg())
	accPre := EvalClean(base, test, 64)

	ev := DefectEval{Runs: 20, Batch: 64, Seed: 11}
	rates := []float64{0.1, 0.2}
	repBase, err := Stability(bg, base, test, accPre, rates, ev)
	if err != nil {
		t.Fatal(err)
	}

	ft := testModel(12)
	if err := ft.Restore(base.Snapshot()); err != nil {
		t.Fatal(err)
	}
	ftCfg := quickCfg()
	ftCfg.Epochs = 12
	if _, err := OneShotFT(bg, ft, train, ftCfg, 0.2); err != nil {
		t.Fatal(err)
	}
	repFT, err := Stability(bg, ft, test, accPre, rates, ev)
	if err != nil {
		t.Fatal(err)
	}

	for i := range rates {
		if repFT.AccDefect[i] <= repBase.AccDefect[i] {
			t.Fatalf("FT defect acc should dominate at rate %v: %.3f vs %.3f",
				rates[i], repFT.AccDefect[i], repBase.AccDefect[i])
		}
	}
	// SS comparisons are meaningful at moderate rates (the paper uses
	// 0.01/0.02); at extreme rates both models are deep in collapse.
	if !math.IsInf(repFT.SS[0], 1) && !math.IsInf(repBase.SS[0], 1) &&
		repFT.SS[0] <= repBase.SS[0] {
		t.Fatalf("FT SS should dominate at rate %v: %.3f vs %.3f",
			rates[0], repFT.SS[0], repBase.SS[0])
	}
	if len(repFT.SS) != 2 || len(repFT.AccDefect) != 2 {
		t.Fatal("report shape wrong")
	}
}

func TestPerBatchResamplingStillLearns(t *testing.T) {
	train, test := testTask()
	net := testModel(13)
	cfg := quickCfg()
	cfg.PerBatch = true
	if _, err := OneShotFT(bg, net, train, cfg, 0.05); err != nil {
		t.Fatal(err)
	}
	if acc := metrics.Evaluate(net, test, 64); acc < 0.55 {
		t.Fatalf("per-batch FT collapsed: %.3f", acc)
	}
}

func TestWeightTensorsMatchesWeightParams(t *testing.T) {
	net := testModel(14)
	ts := WeightTensors(net)
	ps := net.WeightParams()
	if len(ts) != len(ps) {
		t.Fatal("length mismatch")
	}
	for i := range ts {
		if ts[i] != ps[i].W {
			t.Fatal("WeightTensors must alias the live weight tensors")
		}
	}
}

func TestTrainEvalTracking(t *testing.T) {
	train, test := testTask()
	net := testModel(30)
	cfg := quickCfg()
	cfg.Epochs = 4
	cfg.EvalDS = test
	res := mustTrain(t, net, train, cfg)
	if res.BestEvalAcc <= 0 {
		t.Fatal("BestEvalAcc not tracked")
	}
	for _, st := range res.History {
		if st.EvalAcc < 0 || st.EvalAcc > 1 {
			t.Fatalf("EvalAcc out of range: %v", st.EvalAcc)
		}
	}
	best := 0.0
	for _, st := range res.History {
		if st.EvalAcc > best {
			best = st.EvalAcc
		}
	}
	if best != res.BestEvalAcc {
		t.Fatalf("BestEvalAcc %v != max history %v", res.BestEvalAcc, best)
	}
}

func TestTrainKeepBestRestoresBestWeights(t *testing.T) {
	train, test := testTask()
	net := testModel(31)
	cfg := quickCfg()
	cfg.Epochs = 6
	cfg.EvalDS = test
	cfg.KeepBest = true
	res := mustTrain(t, net, train, cfg)
	// The final network must score exactly the tracked best accuracy.
	if got := EvalClean(net, test, cfg.Batch); got != res.BestEvalAcc {
		t.Fatalf("restored accuracy %v != best %v", got, res.BestEvalAcc)
	}
}

func TestConfigNormalizeDefaults(t *testing.T) {
	c := Config{Epochs: 4, Batch: 8, LR: 0.1}.Normalize()
	if c.Schedule == nil {
		t.Fatal("Normalize must install the cosine schedule")
	}
	if c.ADMMInterval != 3 {
		t.Fatalf("ADMMInterval default %d, want 3", c.ADMMInterval)
	}
	if c.FaultModel != fault.ChenModel() {
		t.Fatalf("zero fault model must resolve to ChenModel, got %+v", c.FaultModel)
	}
	if c.Sink == nil {
		t.Fatal("Normalize must resolve a nil sink")
	}
}

func TestDefectEvalNormalizeDefaults(t *testing.T) {
	d := DefectEval{}.Normalize()
	if d.Runs != 10 || d.Batch != 64 {
		t.Fatalf("defaults wrong: %+v", d)
	}
	if d.Model != fault.ChenModel() {
		t.Fatalf("zero model must resolve to ChenModel, got %+v", d.Model)
	}
	if d.Workers < 1 {
		t.Fatalf("workers default %d", d.Workers)
	}
	if d.Sink == nil {
		t.Fatal("Normalize must resolve a nil sink")
	}
	// Explicit values pass through untouched.
	d = DefectEval{Runs: 3, Batch: 32, Workers: 2, Model: fault.Uniform()}.Normalize()
	if d.Runs != 3 || d.Batch != 32 || d.Workers != 2 || d.Model != fault.Uniform() {
		t.Fatalf("explicit values must pass through: %+v", d)
	}
}

// TestHalfZeroFaultModelPanics pins the IsZero/Validate contract: the
// zero model means "default", but an explicitly degenerate model (set
// but unusable) must fail loudly instead of silently becoming Chen.
func TestHalfZeroFaultModelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative-ratio model must panic in Normalize")
		}
	}()
	DefectEval{Model: fault.NewModel(-1, 2)}.Normalize()
}
