package obs

import (
	"fmt"
	"io"
	"sync"
)

// progress renders events for a human watching a terminal. Per-run
// evaluation events and per-epoch checkpoint saves are suppressed — a
// full Table I sweep emits thousands of them — while everything else
// prints one line.
type progress struct {
	mu sync.Mutex
	w  io.Writer
}

// NewProgress returns the human progress renderer (normally attached
// to stderr). It prints every event except the high-volume KindEvalRun
// and KindCkptSave streams (ckpt.restore and ckpt.corrupt, which are
// rare and decision-relevant, do print).
func NewProgress(w io.Writer) Sink {
	return &progress{w: w}
}

func (p *progress) Enabled() bool { return true }

func (p *progress) Emit(e Event) {
	if e.Kind == KindEvalRun || e.Kind == KindCkptSave {
		return
	}
	p.mu.Lock()
	fmt.Fprintln(p.w, e.String())
	p.mu.Unlock()
}
