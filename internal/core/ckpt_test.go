package core

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ftpim/ftpim/internal/ckpt"
	"github.com/ftpim/ftpim/internal/obs"
	"github.com/ftpim/ftpim/internal/tensor"
)

// cancelAfterEpochs cancels a context once n train.epoch events have
// been emitted — the deterministic stand-in for a kill signal landing
// mid-run (the cancellation is observed at the next batch boundary,
// i.e. one batch into the following epoch).
type cancelAfterEpochs struct {
	cancel context.CancelFunc
	left   int
}

func (c *cancelAfterEpochs) Enabled() bool { return true }
func (c *cancelAfterEpochs) Emit(e obs.Event) {
	if e.Kind == obs.KindTrainEpoch {
		if c.left--; c.left == 0 {
			c.cancel()
		}
	}
}

// eventCollector records every event of the kinds it watches.
type eventCollector struct {
	kinds  map[obs.Kind]bool
	events []obs.Event
}

func collect(kinds ...obs.Kind) *eventCollector {
	m := map[obs.Kind]bool{}
	for _, k := range kinds {
		m[k] = true
	}
	return &eventCollector{kinds: m}
}

func (c *eventCollector) Enabled() bool { return true }
func (c *eventCollector) Emit(e obs.Event) {
	if c.kinds[e.Kind] {
		c.events = append(c.events, e)
	}
}

func (c *eventCollector) count(k obs.Kind) int {
	n := 0
	for _, e := range c.events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// ckptCfg is quickCfg with a shorter budget plus KeepBest, so the
// checkpoint path exercises the best-snapshot section too.
func ckptCfg() Config {
	cfg := quickCfg()
	cfg.Epochs = 5
	cfg.FaultRate = 0.05
	return cfg
}

func TestKillAndResumeBitIdentical(t *testing.T) {
	train, test := testTask()
	for _, workers := range []int{1, 4} {
		prev := tensor.SetWorkers(workers)
		t.Cleanup(func() { tensor.SetWorkers(prev) })

		cfg := ckptCfg()
		cfg.EvalDS = test
		cfg.KeepBest = true

		// Control: the uninterrupted run, no checkpointing at all.
		control := testModel(77)
		wantRes := mustTrain(t, control, train, cfg)
		want := control.Snapshot()

		// Interrupt at every possible epoch boundary and resume each.
		for stopAfter := 1; stopAfter < cfg.Epochs; stopAfter++ {
			dir := t.TempDir()

			ctx, cancel := context.WithCancel(context.Background())
			icfg := cfg
			icfg.Sink = &cancelAfterEpochs{cancel: cancel, left: stopAfter}
			icfg.Ckpt = ckpt.NewStore(dir, 100, false, nil).Run("run")
			interrupted := testModel(77)
			if _, err := Train(ctx, interrupted, train, icfg); err == nil {
				t.Fatal("interrupted run must return the cancellation error")
			}
			cancel()

			rcfg := cfg
			rcfg.Ckpt = ckpt.NewStore(dir, 100, true, nil).Run("run")
			resumedNet := testModel(77)
			gotRes, err := Train(context.Background(), resumedNet, train, rcfg)
			if err != nil {
				t.Fatalf("resume after %d epochs: %v", stopAfter, err)
			}
			if got := resumedNet.Snapshot(); string(got) != string(want) {
				t.Fatalf("workers=%d stop=%d: resumed weights differ from uninterrupted run",
					workers, stopAfter)
			}
			if len(gotRes.History) != len(wantRes.History) {
				t.Fatalf("workers=%d stop=%d: history %d epochs, want %d",
					workers, stopAfter, len(gotRes.History), len(wantRes.History))
			}
			for i := range wantRes.History {
				if gotRes.History[i] != wantRes.History[i] {
					t.Fatalf("workers=%d stop=%d: epoch %d stats diverged:\n got %+v\nwant %+v",
						workers, stopAfter, i, gotRes.History[i], wantRes.History[i])
				}
			}
			if gotRes.BestEvalAcc != wantRes.BestEvalAcc || gotRes.BestEpoch != wantRes.BestEpoch {
				t.Fatalf("workers=%d stop=%d: best-epoch bookkeeping diverged", workers, stopAfter)
			}
		}
	}
}

func TestResumeEmitsRestoreEvent(t *testing.T) {
	train, _ := testTask()
	cfg := ckptCfg()
	dir := t.TempDir()

	ctx, cancel := context.WithCancel(context.Background())
	icfg := cfg
	icfg.Sink = &cancelAfterEpochs{cancel: cancel, left: 2}
	icfg.Ckpt = ckpt.NewStore(dir, 100, false, nil).Run("run")
	Train(ctx, testModel(3), train, icfg)
	cancel()

	sink := collect(obs.KindCkptRestore, obs.KindCkptSave)
	rcfg := cfg
	rcfg.Sink = sink
	rcfg.Ckpt = ckpt.NewStore(dir, 100, true, sink).Run("run")
	if _, err := Train(bg, testModel(3), train, rcfg); err != nil {
		t.Fatal(err)
	}
	if n := sink.count(obs.KindCkptRestore); n != 1 {
		t.Fatalf("want exactly 1 ckpt.restore event, got %d", n)
	}
	if n := sink.count(obs.KindCkptSave); n == 0 {
		t.Fatal("resumed run must keep checkpointing")
	}
}

func TestResumeFallsBackPastCorruptNewest(t *testing.T) {
	train, _ := testTask()
	cfg := ckptCfg()
	dir := t.TempDir()

	// Full (uninterrupted) checkpointed run is the control.
	ccfg := cfg
	ccfg.Ckpt = ckpt.NewStore(dir, 100, false, nil).Run("run")
	control := testModel(9)
	wantRes := mustTrain(t, control, train, ccfg)
	want := control.Snapshot()

	// Bit-flip the newest checkpoint; resume must report ckpt.corrupt,
	// fall back one epoch, replay it, and still match the control.
	run := ckpt.NewStore(dir, 100, true, nil).Run("run")
	corruptNewestCkpt(t, run.Dir())

	sink := collect(obs.KindCkptCorrupt, obs.KindCkptRestore)
	rcfg := cfg
	rcfg.Sink = sink
	rcfg.Ckpt = ckpt.NewStore(dir, 100, true, sink).Run("run")
	resumed := testModel(9)
	gotRes, err := Train(bg, resumed, train, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if sink.count(obs.KindCkptCorrupt) == 0 {
		t.Fatal("corrupted newest checkpoint must emit ckpt.corrupt")
	}
	if sink.count(obs.KindCkptRestore) != 1 {
		t.Fatal("must restore from the fallback checkpoint")
	}
	if string(resumed.Snapshot()) != string(want) {
		t.Fatal("resume through corruption must still match the uninterrupted run")
	}
	if len(gotRes.History) != len(wantRes.History) {
		t.Fatalf("history %d epochs, want %d", len(gotRes.History), len(wantRes.History))
	}
}

func TestResumeIgnoresForeignCheckpoint(t *testing.T) {
	train, _ := testTask()
	dir := t.TempDir()

	// Checkpoint a run with one seed...
	cfg := ckptCfg()
	cfg.Ckpt = ckpt.NewStore(dir, 100, false, nil).Run("run")
	mustTrain(t, testModel(5), train, cfg)

	// ...then "resume" with a different seed: the checkpoint belongs to
	// a different experiment and must be ignored, not half-applied.
	other := cfg
	other.Seed = cfg.Seed + 1
	other.Ckpt = ckpt.NewStore(dir, 100, true, nil).Run("run")
	a := testModel(5)
	resA, err := Train(bg, a, train, other)
	if err != nil {
		t.Fatal(err)
	}

	fresh := other
	fresh.Ckpt = nil
	b := testModel(5)
	resB := mustTrain(t, b, train, fresh)
	if string(a.Snapshot()) != string(b.Snapshot()) {
		t.Fatal("foreign checkpoint must be ignored; run must match a fresh one")
	}
	if len(resA.History) != len(resB.History) {
		t.Fatal("foreign checkpoint must not shorten the run")
	}
}

func TestProgressiveFTKillAndResume(t *testing.T) {
	train, _ := testTask()
	cfg := quickCfg()
	cfg.Epochs = 4 // per-stage budget fallback (epochsPerStage passed below)
	ladder := []float64{0.01, 0.05, 0.1}
	const perStage = 2

	control := testModel(42)
	wantRes, err := ProgressiveFT(bg, control, train, cfg, ladder, perStage)
	if err != nil {
		t.Fatal(err)
	}
	want := control.Snapshot()

	// Kill inside every stage (after 1, 3, 5 total epochs → stages 0..2).
	for _, stopAfter := range []int{1, 3, 5} {
		dir := t.TempDir()
		ctx, cancel := context.WithCancel(context.Background())
		icfg := cfg
		icfg.Sink = &cancelAfterEpochs{cancel: cancel, left: stopAfter}
		icfg.Ckpt = ckpt.NewStore(dir, 100, false, nil).Run("prog")
		if _, err := ProgressiveFT(ctx, testModel(42), train, icfg, ladder, perStage); err == nil {
			t.Fatalf("stop=%d: interrupted ladder must return the cancellation error", stopAfter)
		}
		cancel()

		rcfg := cfg
		rcfg.Ckpt = ckpt.NewStore(dir, 100, true, nil).Run("prog")
		resumed := testModel(42)
		gotRes, err := ProgressiveFT(bg, resumed, train, rcfg, ladder, perStage)
		if err != nil {
			t.Fatal(err)
		}
		if string(resumed.Snapshot()) != string(want) {
			t.Fatalf("stop=%d: resumed ladder weights differ from uninterrupted ladder", stopAfter)
		}
		if len(gotRes.History) != len(wantRes.History) {
			t.Fatalf("stop=%d: history %d epochs, want %d", stopAfter, len(gotRes.History), len(wantRes.History))
		}
		for i := range wantRes.History {
			if gotRes.History[i] != wantRes.History[i] {
				t.Fatalf("stop=%d: epoch %d stats diverged", stopAfter, i)
			}
		}
	}
}

func TestCompletedRunResumesAsNoOp(t *testing.T) {
	train, _ := testTask()
	cfg := ckptCfg()
	dir := t.TempDir()
	cfg.Ckpt = ckpt.NewStore(dir, 100, false, nil).Run("run")
	control := testModel(13)
	wantRes := mustTrain(t, control, train, cfg)

	rcfg := cfg
	rcfg.Ckpt = ckpt.NewStore(dir, 100, true, nil).Run("run")
	resumed := testModel(13)
	gotRes, err := Train(bg, resumed, train, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if string(resumed.Snapshot()) != string(control.Snapshot()) {
		t.Fatal("re-running a completed checkpointed run must reproduce its final state")
	}
	if len(gotRes.History) != len(wantRes.History) {
		t.Fatal("no-op resume must return the full history")
	}
}

// corruptNewestCkpt flips one payload bit in the newest checkpoint
// file under dir, simulating on-disk corruption of the latest write.
func corruptNewestCkpt(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	newest := ""
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".ftck") && e.Name() > newest {
			newest = e.Name()
		}
	}
	if newest == "" {
		t.Fatal("no checkpoint files to corrupt")
	}
	path := filepath.Join(dir, newest)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// The no-checkpoint configuration must not add a single allocation to
// the per-epoch path: a nil saver's methods return before touching
// anything.
func TestCkptDisabledAddsZeroAllocs(t *testing.T) {
	var cs *ckptSaver
	res := &Result{}
	if got := testing.AllocsPerRun(100, func() {
		cs.epochEnd(3, res, nil, 128)
		cs.onCancel(3)
	}); got != 0 {
		t.Fatalf("disabled checkpointing allocates %.0f times per epoch, want 0", got)
	}
}

// A diverged run's NaN or ±Inf loss must survive the checkpoint
// metadata bit for bit, and the encoding must be canonical.
func TestMetaRoundTripsNonFiniteBitForBit(t *testing.T) {
	weird := []float64{math.NaN(), math.Float64frombits(0x7ff8_dead_beef_0001), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	m := &trainMeta{
		Seed: 1<<63 + 5, Stage: 2, Epochs: 7, Epoch: 3, FaultRate: 0.05, Samples: 960,
		BestEvalAcc: 0.75, BestEpoch: -1, HasBest: true,
		Prefix: []EpochStats{{Epoch: 0, LR: 0.1, Loss: 1.5}},
		Perm:   []int{2, 0, 1},
	}
	for i, v := range weird {
		m.History = append(m.History, EpochStats{Epoch: i, LR: v, Loss: v, TrainAcc: v, EvalAcc: v, FaultRate: v})
	}
	b := marshalMeta(m)
	got, err := unmarshalMeta(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalMeta(got), b) {
		t.Fatal("meta encoding is not canonical")
	}
	for i, v := range weird {
		h := got.History[i]
		for _, f := range []float64{h.LR, h.Loss, h.TrainAcc, h.EvalAcc, h.FaultRate} {
			if math.Float64bits(f) != math.Float64bits(v) {
				t.Fatalf("epoch %d: %x round-tripped as %x", i, math.Float64bits(v), math.Float64bits(f))
			}
		}
	}
	if got.Seed != m.Seed || got.BestEpoch != -1 || !got.HasBest ||
		len(got.Prefix) != 1 || len(got.Perm) != 3 || got.Perm[0] != 2 {
		t.Fatalf("meta fields changed: %+v", got)
	}
}

// The byte at offset 48 once named the numerics tier. A checkpoint
// written under the retired fast tier (1) cannot resume bit-identically,
// so the decoder refuses it and restore starts fresh; exact (0), what
// every checkpoint is written with, decodes.
func TestMetaRejectsRetiredFastTier(t *testing.T) {
	b := marshalMeta(&trainMeta{Seed: 3, Epochs: 2, Epoch: 1})
	if b[48] != 0 {
		t.Fatalf("byte 48 = %d, want 0", b[48])
	}
	if _, err := unmarshalMeta(b); err != nil {
		t.Fatal(err)
	}
	b[48] = 1
	if _, err := unmarshalMeta(b); err == nil {
		t.Fatal("a fast-tier checkpoint (byte 48 = 1) decoded")
	}
}

// FuzzCheckpointMeta feeds arbitrary bytes to the metadata decoder: it
// must never panic, and anything it accepts must re-encode to exactly
// the input.
func FuzzCheckpointMeta(f *testing.F) {
	f.Add([]byte{})
	f.Add(marshalMeta(&trainMeta{}))
	f.Add(marshalMeta(&trainMeta{Seed: 9, Epochs: 4, Epoch: 2, HasBest: true,
		History: []EpochStats{{Epoch: 0, Loss: math.NaN()}, {Epoch: 1, Loss: math.Inf(1)}},
		Perm:    []int{1, 0}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := unmarshalMeta(data)
		if err != nil {
			return
		}
		if re := marshalMeta(m); !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not canonical: %d bytes in, %d out", len(data), len(re))
		}
	})
}

// logCollector records every log line.
type logCollector struct{ lines []string }

func (c *logCollector) Enabled() bool { return true }
func (c *logCollector) Emit(e obs.Event) {
	if e.Kind == obs.KindLog {
		c.lines = append(c.lines, e.Msg)
	}
}

// A checkpoint from before the binary metadata — its sections carry
// other encodings under the old names — must be refused with a log line
// and never decoded: the resumed run matches a fresh one.
func TestResumeRefusesOlderFormatCheckpoint(t *testing.T) {
	train, _ := testTask()
	cfg := ckptCfg()
	dir := t.TempDir()
	run := ckpt.NewStore(dir, 100, true, nil).Run("run")
	garbage := bytes.Repeat([]byte{0xff}, 64)
	if _, _, err := run.Save(map[string][]byte{
		"meta": garbage, secNet: garbage, secOpt: garbage, secRNG: garbage, "perm": garbage,
	}); err != nil {
		t.Fatal(err)
	}
	logs := &logCollector{}
	rcfg := cfg
	rcfg.Sink = logs
	rcfg.Ckpt = ckpt.NewStore(dir, 100, true, nil).Run("run")
	resumed := testModel(21)
	if _, err := Train(bg, resumed, train, rcfg); err != nil {
		t.Fatal(err)
	}
	fresh := testModel(21)
	mustTrain(t, fresh, train, cfg)
	if string(resumed.Snapshot()) != string(fresh.Snapshot()) {
		t.Fatal("an older-format checkpoint must be ignored; the run must match a fresh one")
	}
	refused := false
	for _, l := range logs.lines {
		refused = refused || strings.Contains(l, `no usable "train" section`)
	}
	if !refused {
		t.Fatalf("no refusal logged; log lines: %q", logs.lines)
	}
}
