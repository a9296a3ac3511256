// Package obs is the run-event observability layer: a typed stream of
// structured events describing what a training or evaluation run is
// doing, consumed by pluggable sinks.
//
// Emitters (internal/core, internal/experiments) publish obs.Event
// values through an obs.Sink threaded in via core.Config.Sink,
// core.DefectEval.Sink and experiments.Env.Sink. Three sink families
// ship with the package:
//
//   - Null: discards everything and reports Enabled() == false, so hot
//     paths skip event construction entirely (allocation-free).
//   - NewJSONL: a schema-versioned machine-readable JSON-Lines writer
//     (the `ftpim -events out.jsonl` backend).
//   - NewProgress / LogfSink: human-oriented renderers; LogfSink is the
//     mechanical migration adapter for code that used the old
//     `logf func(string, ...any)` parameters.
//
// Determinism contract: events observe a run, they never perturb it.
// No emitter draws randomness, mutates weights, or changes float
// accumulation order on behalf of a sink, so results with any sink
// attached are bit-identical to results with none, at every worker
// count. Sinks must be safe for concurrent use: the parallel
// Monte-Carlo evaluator emits eval.run events from worker goroutines.
package obs

import (
	"fmt"
	"sync"
)

// Kind labels one event type.
type Kind string

// Event kinds emitted by the run layer.
const (
	// KindLog is a free-form human-readable message (Msg).
	KindLog Kind = "log"
	// KindTrainEpoch reports one finished training epoch
	// (Epoch, LR, Loss, Acc, EvalAcc, Rate = Psa used this epoch).
	KindTrainEpoch Kind = "train.epoch"
	// KindFTStage reports the start of one progressive-FT ladder stage
	// (Stage/Stages, Rate = the rung's Psa).
	KindFTStage Kind = "ft.stage"
	// KindEvalRun reports one Monte-Carlo defect-evaluation run
	// (Run, Rate, Acc). Emitted from worker goroutines when the
	// evaluator runs parallel, so arrival order is scheduling-dependent;
	// Run identifies the draw regardless of order.
	KindEvalRun Kind = "eval.run"
	// KindEvalRate reports one completed rate of a defect sweep
	// (Rate, Acc = mean, N = runs).
	KindEvalRate Kind = "eval.rate"
	// KindCacheHit / KindCacheMiss / KindCacheWrite trace the trained-
	// model cache (Key = cache key).
	KindCacheHit   Kind = "cache.hit"
	KindCacheMiss  Kind = "cache.miss"
	KindCacheWrite Kind = "cache.write"
	// KindTiming reports a phase's wall clock (Phase, Seconds, N =
	// items processed — samples for training, runs for evaluation).
	// Wall-clock values are the one non-deterministic event field.
	KindTiming Kind = "timing"
	// KindCkptSave reports one crash-safe checkpoint written to disk
	// (Key = file path, Epoch/Stage = training position, N = bytes).
	KindCkptSave Kind = "ckpt.save"
	// KindCkptRestore reports a training run resuming from a checkpoint
	// (Key = file path, Epoch = completed epochs restored, Stage).
	KindCkptRestore Kind = "ckpt.restore"
	// KindCkptCorrupt reports a checkpoint file that failed its
	// checksum or decode and was skipped in favor of an older good one
	// (Key = file path, Msg = reason).
	KindCkptCorrupt Kind = "ckpt.corrupt"
	// KindServeRequest reports one completed HTTP request against the
	// serving API (Phase = route name "infer"/"defect-eval"/"healthz",
	// N = HTTP status code, Seconds = request latency). The JSONL sink
	// therefore doubles as an access log.
	KindServeRequest Kind = "serve.request"
	// KindServeBatch reports one executed inference micro-batch
	// (Run = 1-based batch ordinal, N = requests coalesced into the
	// batch, Seconds = latency from the first request's enqueue to
	// batch completion).
	KindServeBatch Kind = "serve.batch"
	// KindServeDrain reports a completed graceful drain (N = queued
	// requests flushed after the drain began, Seconds = drain wall
	// clock).
	KindServeDrain Kind = "serve.drain"
	// KindDistLease reports one run-range lease issued to a worker
	// (Key = worker id, Run = lease id, Rate = the lease's fault rate,
	// N = runs in the range).
	KindDistLease Kind = "dist.lease"
	// KindDistWorkerJoin reports a worker registering with the
	// coordinator (Key = worker id, N = pool size after the join).
	KindDistWorkerJoin Kind = "dist.worker.join"
	// KindDistWorkerLost reports a worker leaving the pool — connection
	// error, EOF, or process death (Key = worker id, N = pool size
	// after the loss, Msg = reason).
	KindDistWorkerLost Kind = "dist.worker.lost"
	// KindDistReissue reports a lease returned to the pending queue —
	// its worker died, missed its heartbeat deadline, or reported an
	// error (Key = worker id the lease was revoked from, Run = lease
	// id, Rate, N = runs in the range, Msg = reason).
	KindDistReissue Kind = "dist.reissue"
	// KindDistFallback reports the coordinator executing one lease
	// in-process because no workers are available (Run = lease id,
	// Rate, N = runs in the range).
	KindDistFallback Kind = "dist.fallback"
)

// Event is one structured observation of a run. It is a flat value
// type so emitting through an interface does not allocate; only the
// fields relevant to a Kind are set (see the Kind constants). Ordinal
// fields (Epoch, Stage, Run) are 1-based so that zero always means
// "not applicable".
type Event struct {
	Kind    Kind    `json:"kind"`
	Msg     string  `json:"msg,omitempty"`
	Phase   string  `json:"phase,omitempty"`
	Key     string  `json:"key,omitempty"`
	Epoch   int     `json:"epoch,omitempty"`
	Stage   int     `json:"stage,omitempty"`
	Stages  int     `json:"stages,omitempty"`
	Run     int     `json:"run,omitempty"`
	Rate    float64 `json:"rate,omitempty"`
	LR      float64 `json:"lr,omitempty"`
	Loss    float64 `json:"loss,omitempty"`
	Acc     float64 `json:"acc,omitempty"`
	EvalAcc float64 `json:"eval_acc,omitempty"`
	Seconds float64 `json:"seconds,omitempty"`
	N       int     `json:"n,omitempty"`
}

// String renders the event for human consumption (one line, no
// trailing newline). NewProgress and LogfSink use it.
func (e Event) String() string {
	switch e.Kind {
	case KindLog:
		return e.Msg
	case KindTrainEpoch:
		s := fmt.Sprintf("epoch %3d  lr %.4f  loss %.4f  acc %.4f  psa %g",
			e.Epoch, e.LR, e.Loss, e.Acc, e.Rate)
		if e.EvalAcc > 0 {
			s += fmt.Sprintf("  eval %.4f", e.EvalAcc)
		}
		return s
	case KindFTStage:
		return fmt.Sprintf("progressive stage %d/%d: Psa=%g", e.Stage, e.Stages, e.Rate)
	case KindEvalRun:
		return fmt.Sprintf("eval run %d @Psa=%g: acc %.4f", e.Run, e.Rate, e.Acc)
	case KindEvalRate:
		return fmt.Sprintf("defect eval @Psa=%g: mean acc %.4f over %d runs", e.Rate, e.Acc, e.N)
	case KindCacheHit:
		return "cache hit: " + e.Key
	case KindCacheMiss:
		return "training " + e.Key + " ..."
	case KindCacheWrite:
		return "cached: " + e.Key
	case KindTiming:
		if e.Seconds > 0 && e.N > 0 {
			return fmt.Sprintf("%s: %.2fs (%d items, %.1f/s)",
				e.Phase, e.Seconds, e.N, float64(e.N)/e.Seconds)
		}
		return fmt.Sprintf("%s: %.2fs", e.Phase, e.Seconds)
	case KindCkptSave:
		return fmt.Sprintf("checkpoint saved: %s (epoch %d, %d bytes)", e.Key, e.Epoch, e.N)
	case KindCkptRestore:
		return fmt.Sprintf("resumed from checkpoint %s (epoch %d, stage %d)", e.Key, e.Epoch, e.Stage)
	case KindCkptCorrupt:
		return fmt.Sprintf("corrupt checkpoint %s skipped: %s", e.Key, e.Msg)
	case KindServeRequest:
		return fmt.Sprintf("serve %s: HTTP %d in %.2fms", e.Phase, e.N, e.Seconds*1000)
	case KindServeBatch:
		return fmt.Sprintf("serve batch %d: %d request(s) in %.2fms", e.Run, e.N, e.Seconds*1000)
	case KindServeDrain:
		return fmt.Sprintf("serve drain: %d queued request(s) flushed in %.2fms", e.N, e.Seconds*1000)
	case KindDistLease:
		return fmt.Sprintf("lease %d -> %s: %d run(s) @Psa=%g", e.Run, e.Key, e.N, e.Rate)
	case KindDistWorkerJoin:
		return fmt.Sprintf("worker %s joined (pool %d)", e.Key, e.N)
	case KindDistWorkerLost:
		return fmt.Sprintf("worker %s lost (pool %d): %s", e.Key, e.N, e.Msg)
	case KindDistReissue:
		return fmt.Sprintf("lease %d reissued from %s (%d run(s) @Psa=%g): %s", e.Run, e.Key, e.N, e.Rate, e.Msg)
	case KindDistFallback:
		return fmt.Sprintf("lease %d executed in-process: %d run(s) @Psa=%g", e.Run, e.N, e.Rate)
	}
	if e.Msg != "" {
		return string(e.Kind) + ": " + e.Msg
	}
	return string(e.Kind)
}

// Sink consumes run events. Implementations must be safe for
// concurrent use (the parallel evaluator emits from several
// goroutines) and must not block for long — emitters call Emit
// synchronously on the run path.
type Sink interface {
	// Emit consumes one event.
	Emit(Event)
	// Enabled reports whether events are consumed at all. Hot paths
	// check it before building an event, so the Null sink costs
	// nothing.
	Enabled() bool
}

type nullSink struct{}

func (nullSink) Emit(Event)    {}
func (nullSink) Enabled() bool { return false }

// Null discards every event. It is the resolution of a nil sink
// everywhere a Sink is accepted.
var Null Sink = nullSink{}

// Or resolves a possibly-nil sink to a usable one (nil → Null).
func Or(s Sink) Sink {
	if s == nil {
		return Null
	}
	return s
}

// Logf formats and emits a KindLog event. The format call is skipped
// entirely when the sink is nil or disabled, so callers may leave
// Logf calls on hot-ish paths.
func Logf(s Sink, format string, args ...any) {
	if s == nil || !s.Enabled() {
		return
	}
	s.Emit(Event{Kind: KindLog, Msg: fmt.Sprintf(format, args...)})
}

// Multi fans every event out to several sinks in order. Nil and Null
// members are dropped; with none left it returns Null, with one it
// returns that sink unwrapped.
func Multi(sinks ...Sink) Sink {
	var live []Sink
	for _, s := range sinks {
		if s != nil && s != Null {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return Null
	case 1:
		return live[0]
	}
	return multiSink(live)
}

type multiSink []Sink

func (m multiSink) Enabled() bool { return true }

func (m multiSink) Emit(e Event) {
	for _, s := range m {
		s.Emit(e)
	}
}

// Recorder is a Sink that stores every event in memory, for tests and
// programmatic inspection. Safe for concurrent use.
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// Emit implements Sink.
func (r *Recorder) Emit(e Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// Enabled implements Sink.
func (r *Recorder) Enabled() bool { return true }

// Events returns a copy of everything recorded so far.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// Count returns how many events of the given kind were recorded
// ("" counts everything).
func (r *Recorder) Count(kind Kind) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if kind == "" {
		return len(r.events)
	}
	n := 0
	for _, e := range r.events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}
