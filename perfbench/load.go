package main

import (
	"bytes"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"
)

// Serving limits shared by every ladder step.
const (
	// p99Budget is the latency budget of one 20 Hz perception loop; a
	// ladder step passes only when its p99 stays within it.
	p99Budget = 50 * time.Millisecond
	// backlogBudget bounds how late the last request due in a step may
	// complete. A step whose last request finishes later has a growing
	// queue even if its p99 still looks fine.
	backlogBudget = 50 * time.Millisecond
)

// poissonSchedule returns the due offsets of an open-loop Poisson
// arrival process at rate requests per second over dur. The schedule
// depends on seed alone.
func poissonSchedule(seed uint64, rate float64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	var due []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		if t >= dur.Seconds() {
			return due
		}
		due = append(due, time.Duration(t*float64(time.Second)))
	}
}

// call is one HTTP request the load generator sends.
type call struct {
	path string
	body []byte
	req  int // request id carried by the trace span
}

// outcome is what the generator saw for one call. Offsets are from the
// start of the phase.
type outcome struct {
	due, sent, done time.Duration
	status          int
	body            []byte
}

// latency counts from the due time, so a late generator or a stalled
// server shows up in every request that was due in the meantime.
func (o outcome) latency() time.Duration { return o.done - o.due }

// openLoop sends calls[i] through h at due[i] after the phase starts,
// each on its own goroutine, never waiting for earlier responses. It
// returns when every call has completed. Requests go straight to the
// handler, with no sockets.
func openLoop(h http.Handler, due []time.Duration, calls []call, tr *tracer, parent int, phase string) []outcome {
	out := make([]outcome, len(due))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range due {
		if d := due[i] - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := &out[i]
			o.due = due[i]
			req := httptest.NewRequest(http.MethodPost, calls[i].path, bytes.NewReader(calls[i].body))
			rec := httptest.NewRecorder()
			o.sent = time.Since(start)
			sp := tr.beginReq(parent, "serve.Handler"+calls[i].path, phase, calls[i].req)
			h.ServeHTTP(rec, req)
			tr.end(sp)
			o.done = time.Since(start)
			o.status = rec.Code
			o.body = rec.Body.Bytes()
		}(i)
	}
	wg.Wait()
	return out
}

// phaseStats summarizes one fixed-rate phase or ladder step.
type phaseStats struct {
	Name    string  `json:"name"`
	Rate    float64 `json:"rate_rps"`
	Seconds float64 `json:"seconds"`
	Sent    int     `json:"sent"`
	OK      int     `json:"succeeded"`
	Failed  int     `json:"failed"`
	Refused int     `json:"refused"`
	Wrong   int     `json:"wrong"`

	P50ms  float64 `json:"p50_ms"`
	P99ms  float64 `json:"p99_ms"`
	P99N   int     `json:"p99_beyond"`
	P999ms float64 `json:"p999_ms"`
	P999N  int     `json:"p999_beyond"`
	MaxMs  float64 `json:"max_ms"`
	// TailQ is the highest percentile with minTail samples beyond it
	// (0 when there are too few samples for any), TailMs its latency.
	TailQ   float64 `json:"tail_q"`
	TailMs  float64 `json:"tail_ms"`
	LastDue float64 `json:"last_due_ms"` // latency of the last request due

	GenLateP50ms float64 `json:"gen_late_p50_ms"`
	GenLateMaxMs float64 `json:"gen_late_max_ms"`
	MeanBatch    float64 `json:"mean_batch,omitempty"`
	Health       string  `json:"healthz,omitempty"` // traced runs only

	Pass   *bool  `json:"pass,omitempty"` // ladder steps only
	Reason string `json:"reason,omitempty"`

	lat []time.Duration // sorted latencies of succeeded requests
}

// summarize counts outcomes and fills the latency and lateness fields.
// wrong marks responses that failed verification; they are counted
// apart and excluded from the latencies, like refused and failed ones.
func summarize(name string, rate float64, dur time.Duration, outs []outcome, wrong []bool) phaseStats {
	st := phaseStats{Name: name, Rate: rate, Seconds: dur.Seconds(), Sent: len(outs)}
	var lat, late []time.Duration
	var lastDue time.Duration = -1
	for i, o := range outs {
		switch {
		case o.status == http.StatusTooManyRequests:
			st.Refused++
		case o.status != http.StatusOK:
			st.Failed++
		case wrong != nil && wrong[i]:
			st.Wrong++
		default:
			st.OK++
			lat = append(lat, o.latency())
		}
		late = append(late, o.sent-o.due)
		if o.due >= lastDue {
			lastDue = o.due
			st.LastDue = ms(o.latency())
		}
	}
	st.lat = sortDurations(lat)
	st.P50ms = ms(percentile(st.lat, 0.5))
	st.P99ms, st.P99N = ms(percentile(st.lat, 0.99)), samplesBeyond(len(st.lat), 0.99)
	st.P999ms, st.P999N = ms(percentile(st.lat, 0.999)), samplesBeyond(len(st.lat), 0.999)
	if len(st.lat) > 0 {
		st.MaxMs = ms(st.lat[len(st.lat)-1])
	}
	if st.TailQ = highestTail(len(st.lat)); st.TailQ > 0 {
		st.TailMs = ms(percentile(st.lat, st.TailQ))
	}
	late = sortDurations(late)
	st.GenLateP50ms = ms(percentile(late, 0.5))
	if len(late) > 0 {
		st.GenLateMaxMs = ms(late[len(late)-1])
	}
	return st
}

// stepPasses is the ladder's pass rule: enough samples for a p99 with
// minTail samples beyond it, no refused, failed or wrong request, p99
// within p99Budget, and the last request due in the step completed
// within backlogBudget of its due time.
func stepPasses(st phaseStats) (bool, string) {
	switch {
	case st.Refused+st.Failed+st.Wrong > 0:
		return false, "refused, failed or wrong requests"
	case st.P99N < minTail:
		return false, "too few samples for p99"
	case st.P99ms > ms(p99Budget):
		return false, "p99 over budget"
	case st.LastDue > ms(backlogBudget):
		return false, "backlog: last request late"
	}
	return true, ""
}
