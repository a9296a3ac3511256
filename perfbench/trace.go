package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced call: its name, start and end (ns from the start
// of the trace) and the id of its parent span (0 for a root). Infer
// spans also carry their request id and phase.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Req    int    `json:"req,omitempty"`
	Phase  string `json:"phase,omitempty"`
}

// tracer records spans in memory; they are written out when the
// workload ends. A nil *tracer is the untraced run: every method is a
// no-op returning span id 0.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(parent int, name string) int {
	return t.beginReq(parent, name, "", 0)
}

func (t *tracer) beginReq(parent int, name, phase string, req int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, Req: req, Phase: phase})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed runs f inside a span and returns its wall time, which the
// caller uses whether or not the run is traced.
func (t *tracer) timed(parent int, name string, f func()) time.Duration {
	id := t.begin(parent, name)
	start := time.Now()
	f()
	d := time.Since(start)
	t.end(id)
	return d
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it covered by its children (overlapping
// children, such as concurrent requests, are counted once).
func (t *tracer) selfTimes() map[string]time.Duration {
	out := map[string]time.Duration{}
	if t == nil {
		return out
	}
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curLo, curHi int64
	open := false
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi <= lo {
			continue
		}
		if open && lo <= curHi {
			curHi = max(curHi, hi)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = lo, hi, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	var ds []time.Duration
	if t == nil {
		return ds
	}
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, time.Duration(s.End-s.Start))
		}
	}
	return ds
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
