package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNullIsDisabledAndAllocationFree(t *testing.T) {
	if Null.Enabled() {
		t.Fatal("Null must report disabled")
	}
	Null.Emit(Event{Kind: KindLog, Msg: "dropped"}) // must not panic

	// The disabled fast path must not allocate: Logf skips formatting
	// and the variadic slice must not escape.
	n := int(testing.AllocsPerRun(100, func() {
		Logf(Null, "epoch %d loss %f", 3, 0.25)
	}))
	if n != 0 {
		t.Fatalf("Logf on Null sink allocated %d times per call", n)
	}
}

func TestOrResolvesNil(t *testing.T) {
	if Or(nil) != Null {
		t.Fatal("Or(nil) must be Null")
	}
	r := &Recorder{}
	if Or(r) != Sink(r) {
		t.Fatal("Or must pass a live sink through")
	}
}

func TestLogfEmitsFormattedMessage(t *testing.T) {
	r := &Recorder{}
	Logf(r, "stage %d/%d", 2, 5)
	evs := r.Events()
	if len(evs) != 1 || evs[0].Kind != KindLog || evs[0].Msg != "stage 2/5" {
		t.Fatalf("bad log event: %+v", evs)
	}
}

func TestMultiFanOutAndCollapse(t *testing.T) {
	if Multi() != Null {
		t.Fatal("empty Multi must be Null")
	}
	if Multi(nil, Null) != Null {
		t.Fatal("Multi of nothing live must be Null")
	}
	r := &Recorder{}
	if Multi(nil, r, Null) != Sink(r) {
		t.Fatal("single live sink must be returned unwrapped")
	}
	r2 := &Recorder{}
	m := Multi(r, r2)
	if !m.Enabled() {
		t.Fatal("multi sink must be enabled")
	}
	m.Emit(Event{Kind: KindLog, Msg: "x"})
	if r.Count("") != 1 || r2.Count("") != 1 {
		t.Fatalf("fan-out wrong: %d, %d", r.Count(""), r2.Count(""))
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := &Recorder{}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Emit(Event{Kind: KindEvalRun, Run: i*100 + j + 1})
			}
		}(i)
	}
	wg.Wait()
	if got := r.Count(KindEvalRun); got != 800 {
		t.Fatalf("recorded %d events, want 800", got)
	}
}

func TestJSONLSchemaVersionedAndParseable(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.SetClock(func() time.Time { return time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC) })
	j.Emit(Event{Kind: KindTrainEpoch, Epoch: 1, LR: 0.1, Loss: 2.5, Acc: 0.3, Rate: 0.05})
	j.Emit(Event{Kind: KindEvalRun, Run: 3, Rate: 0.01, Acc: 0.91})
	j.Emit(Event{Kind: KindCacheHit, Key: "pretrain-c10"})

	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		lines++
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d does not parse: %v\n%s", lines, err, sc.Text())
		}
		if rec["schema"] != SchemaVersion {
			t.Fatalf("line %d missing schema field: %s", lines, sc.Text())
		}
		if rec["t"] != "2026-08-05T12:00:00Z" {
			t.Fatalf("line %d bad timestamp: %s", lines, sc.Text())
		}
		if rec["kind"] == "" {
			t.Fatalf("line %d missing kind: %s", lines, sc.Text())
		}
	}
	if lines != 3 {
		t.Fatalf("wrote %d lines, want 3", lines)
	}
}

func TestJSONLNilClockOmitsTimestamp(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.SetClock(nil)
	j.Emit(Event{Kind: KindLog, Msg: "m"})
	if strings.Contains(buf.String(), `"t"`) {
		t.Fatalf("timestamp present with nil clock: %s", buf.String())
	}
}

func TestProgressSuppressesEvalRuns(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf)
	p.Emit(Event{Kind: KindEvalRun, Run: 1, Rate: 0.1, Acc: 0.5})
	p.Emit(Event{Kind: KindLog, Msg: "visible"})
	out := buf.String()
	if strings.Contains(out, "eval run") || !strings.Contains(out, "visible") {
		t.Fatalf("progress filter wrong:\n%s", out)
	}
}

func TestEventStringCoversKinds(t *testing.T) {
	cases := []struct {
		e    Event
		want string
	}{
		{Event{Kind: KindLog, Msg: "hello"}, "hello"},
		{Event{Kind: KindCacheMiss, Key: "k"}, "training k ..."},
		{Event{Kind: KindCacheWrite, Key: "k"}, "cached: k"},
		{Event{Kind: KindTiming, Phase: "train", Seconds: 2, N: 100}, "train: 2.00s (100 items, 50.0/s)"},
		{Event{Kind: KindEvalRate, Rate: 0.1, Acc: 0.5, N: 8}, "defect eval @Psa=0.1: mean acc 0.5000 over 8 runs"},
		{Event{Kind: "custom.kind"}, "custom.kind"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Fatalf("String(%+v) = %q, want %q", c.e, got, c.want)
		}
	}
}

// TestEventStringOperatorLines pins the line the progress renderer
// prints for each kind the table above leaves out.
func TestEventStringOperatorLines(t *testing.T) {
	cases := []struct {
		name string
		e    Event
		want string
	}{
		{"train.epoch", Event{Kind: KindTrainEpoch, Epoch: 3, LR: 0.1, Loss: 1.23456, Acc: 0.5, Rate: 0.01},
			"epoch   3  lr 0.1000  loss 1.2346  acc 0.5000  psa 0.01"},
		{"train.epoch with eval", Event{Kind: KindTrainEpoch, Epoch: 12, LR: 0.05, Loss: 0.5, Acc: 0.9, EvalAcc: 0.75},
			"epoch  12  lr 0.0500  loss 0.5000  acc 0.9000  psa 0  eval 0.7500"},
		{"ft.stage", Event{Kind: KindFTStage, Stage: 2, Stages: 4, Rate: 0.05}, "progressive stage 2/4: Psa=0.05"},
		{"eval.run", Event{Kind: KindEvalRun, Run: 7, Rate: 0.02, Acc: 0.8125}, "eval run 7 @Psa=0.02: acc 0.8125"},
		{"cache.hit", Event{Kind: KindCacheHit, Key: "pretrain-c10"}, "cache hit: pretrain-c10"},
		{"timing without items", Event{Kind: KindTiming, Phase: "eval", Seconds: 1.5}, "eval: 1.50s"},
		{"ckpt.save", Event{Kind: KindCkptSave, Key: "r/000003.ftck", Epoch: 3, N: 4096},
			"checkpoint saved: r/000003.ftck (epoch 3, 4096 bytes)"},
		{"ckpt.restore", Event{Kind: KindCkptRestore, Key: "r/000003.ftck", Epoch: 3, Stage: 2},
			"resumed from checkpoint r/000003.ftck (epoch 3, stage 2)"},
		{"ckpt.corrupt", Event{Kind: KindCkptCorrupt, Key: "r/000004.ftck", Msg: "checksum mismatch"},
			"corrupt checkpoint r/000004.ftck skipped: checksum mismatch"},
		{"serve.request", Event{Kind: KindServeRequest, Phase: "/v1/infer", N: 200, Seconds: 0.00125},
			"serve /v1/infer: HTTP 200 in 1.25ms"},
		{"serve.batch", Event{Kind: KindServeBatch, Run: 9, N: 4, Seconds: 0.002}, "serve batch 9: 4 request(s) in 2.00ms"},
		{"serve.drain", Event{Kind: KindServeDrain, N: 3, Seconds: 0.01}, "serve drain: 3 queued request(s) flushed in 10.00ms"},
		{"dist.lease", Event{Kind: KindDistLease, Run: 5, Key: "w1", N: 8, Rate: 0.1}, "lease 5 -> w1: 8 run(s) @Psa=0.1"},
		{"dist.worker.join", Event{Kind: KindDistWorkerJoin, Key: "w2", N: 3}, "worker w2 joined (pool 3)"},
		{"dist.worker.lost", Event{Kind: KindDistWorkerLost, Key: "w2", N: 2, Msg: "EOF"}, "worker w2 lost (pool 2): EOF"},
		{"dist.reissue", Event{Kind: KindDistReissue, Run: 5, Key: "w2", N: 8, Rate: 0.1, Msg: "worker lost"},
			"lease 5 reissued from w2 (8 run(s) @Psa=0.1): worker lost"},
		{"dist.fallback", Event{Kind: KindDistFallback, Run: 6, N: 8, Rate: 0.1}, "lease 6 executed in-process: 8 run(s) @Psa=0.1"},
		{"unknown kind with message", Event{Kind: "custom.kind", Msg: "detail"}, "custom.kind: detail"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.e.String(); got != c.want {
				t.Fatalf("String() = %q, want %q", got, c.want)
			}
		})
	}
}

// TestProgressPrintsRareCheckpointEvents: of the checkpoint events,
// the per-epoch saves are suppressed, while restores and corrupt files
// print.
func TestProgressPrintsRareCheckpointEvents(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf)
	if !p.Enabled() {
		t.Fatal("the progress renderer must be enabled")
	}
	p.Emit(Event{Kind: KindCkptSave, Key: "a", Epoch: 1, N: 10})
	p.Emit(Event{Kind: KindCkptRestore, Key: "b", Epoch: 2, Stage: 1})
	p.Emit(Event{Kind: KindCkptCorrupt, Key: "c", Msg: "bad"})
	want := "resumed from checkpoint b (epoch 2, stage 1)\ncorrupt checkpoint c skipped: bad\n"
	if buf.String() != want {
		t.Fatalf("progress printed:\n%s\nwant:\n%s", buf.String(), want)
	}
}
