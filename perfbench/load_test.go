package main

import (
	"net/http"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestHighestTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0},         // even the median has fewer than 10 beyond
		{20, 0.5},      // 10 beyond the median
		{999, 0.9},     // p99 would have 9 beyond
		{1000, 0.99},   // exactly 10 beyond p99
		{9999, 0.99},   // p99.9 would have 9 beyond
		{10000, 0.999}, // exactly 10 beyond p99.9
		{100000, 0.9999},
	} {
		if got := highestTail(c.n); got != c.want {
			t.Errorf("highestTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a := poissonSchedule(42, 1000, 2*time.Second)
	b := poissonSchedule(42, 1000, 2*time.Second)
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if slices.Equal(a, poissonSchedule(43, 1000, 2*time.Second)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if !slices.IsSorted(a) || a[0] < 0 || a[len(a)-1] >= 2*time.Second {
		t.Fatal("schedule is not ascending within the phase")
	}
	// 2000 expected arrivals; the Poisson standard deviation is ~45.
	if n := len(a); n < 1800 || n > 2200 {
		t.Fatalf("%d arrivals at 1000/s over 2s", n)
	}
}

// A handler that stalls for 100 ms must inflate the latency of every
// request due during the stall: latency counts from the due time, not
// from when the request finally got through.
func TestLatencyCountsFromDueTime(t *testing.T) {
	const stall = 100 * time.Millisecond
	var mu sync.Mutex
	var once sync.Once
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		once.Do(func() { time.Sleep(stall) })
		mu.Unlock()
		w.WriteHeader(http.StatusOK)
	})
	var due []time.Duration
	for d := time.Duration(0); d < 200*time.Millisecond; d += 5 * time.Millisecond {
		due = append(due, d)
	}
	calls := make([]call, len(due))
	for i := range calls {
		calls[i] = call{path: "/v1/infer"}
	}
	outs := openLoop(h, due, calls, nil, 0, "test")
	for _, o := range outs {
		if o.due < stall && o.latency() < stall-o.due {
			t.Errorf("request due at %v: latency %v does not cover the stall", o.due, o.latency())
		}
		if o.due >= stall+50*time.Millisecond && o.latency() >= stall {
			t.Errorf("request due at %v after the stall: latency %v", o.due, o.latency())
		}
	}
	st := summarize("test", 200, 200*time.Millisecond, outs, nil)
	if st.OK != len(due) || st.P50ms <= 0 {
		t.Fatalf("summary %+v", st)
	}
}

// outcomes builds n successful outcomes due 1 ms apart, each with the
// given latency.
func outcomes(n int, lat time.Duration) []outcome {
	outs := make([]outcome, n)
	for i := range outs {
		due := time.Duration(i) * time.Millisecond
		outs[i] = outcome{due: due, sent: due, done: due + lat, status: http.StatusOK}
	}
	return outs
}

func TestLadderPassRule(t *testing.T) {
	step := func(outs []outcome, wrong []bool) (bool, string) {
		return stepPasses(summarize("step", 1000, time.Second, outs, wrong))
	}
	if ok, why := step(outcomes(1000, 5*time.Millisecond), nil); !ok {
		t.Fatalf("healthy step failed: %s", why)
	}
	if ok, _ := step(outcomes(999, 5*time.Millisecond), nil); ok {
		t.Error("step with 9 samples beyond p99 passed")
	}
	if ok, _ := step(outcomes(1000, 60*time.Millisecond), nil); ok {
		t.Error("step with p99 over 50 ms passed")
	}
	refused := outcomes(1000, 5*time.Millisecond)
	refused[3].status = http.StatusTooManyRequests
	if ok, _ := step(refused, nil); ok {
		t.Error("step with a refused request passed")
	}
	failed := outcomes(1000, 5*time.Millisecond)
	failed[3].status = http.StatusServiceUnavailable
	if ok, _ := step(failed, nil); ok {
		t.Error("step with a failed request passed")
	}
	wrong := make([]bool, 1000)
	wrong[7] = true
	if ok, _ := step(outcomes(1000, 5*time.Millisecond), wrong); ok {
		t.Error("step with a wrong response passed")
	}
	// Backlog: p99 is fine, but the last request due finished 80 ms
	// after its due time, so the queue was still growing.
	backlog := outcomes(2000, 5*time.Millisecond)
	last := &backlog[len(backlog)-1]
	last.done = last.due + 80*time.Millisecond
	ok, why := step(backlog, nil)
	if ok || why != "backlog: last request late" {
		t.Errorf("backlogged step: pass %v (%s)", ok, why)
	}
}
