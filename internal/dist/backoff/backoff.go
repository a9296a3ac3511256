// Package backoff implements jittered exponential backoff with context
// cancellation, shared by every transient-retry loop in the distributed
// layer (worker dials, reconnects after a coordinator restart). It
// replaces ad-hoc sleeps: a Policy describes the schedule, a Retrier
// executes it, and both the clock and the jitter source are pluggable
// so tests run instantly against a fake clock.
package backoff

import (
	"context"
	"math/rand"
	"time"
)

// Policy describes a retry schedule. The zero value of every field
// resolves to a documented default via Normalize.
type Policy struct {
	// Base is the delay before the second attempt (<=0 → 100ms). The
	// first attempt always runs immediately.
	Base time.Duration
	// Max caps every delay after jitter (<=0 → 5s).
	Max time.Duration
	// Factor multiplies the delay after each failed attempt (<1 → 2).
	Factor float64
	// Jitter is the fraction of each delay that is randomized: the
	// effective delay is uniform in [d·(1-Jitter), d·(1+Jitter)],
	// clamped to Max. Negative → 0.2 (the default); 0 disables jitter
	// (useful for exact-schedule tests).
	Jitter float64
	// Attempts bounds the total number of attempts (<=0 → unlimited;
	// retry until the context is cancelled or the operation succeeds).
	Attempts int
}

// Normalize resolves zero-valued fields to their defaults.
func (p Policy) Normalize() Policy {
	if p.Base <= 0 {
		p.Base = 100 * time.Millisecond
	}
	if p.Max <= 0 {
		p.Max = 5 * time.Second
	}
	if p.Factor < 1 {
		p.Factor = 2
	}
	if p.Jitter < 0 {
		p.Jitter = 0.2
	}
	if p.Jitter > 1 {
		p.Jitter = 1
	}
	return p
}

// Delay returns the pre-jitter delay before attempt n (0-based): 0 for
// the first attempt, then Base·Factor^(n-1) capped at Max. The policy
// must be normalized.
func (p Policy) Delay(n int) time.Duration {
	if n <= 0 {
		return 0
	}
	d := float64(p.Base)
	for i := 1; i < n; i++ {
		d *= p.Factor
		if d >= float64(p.Max) {
			return p.Max
		}
	}
	if d > float64(p.Max) {
		return p.Max
	}
	return time.Duration(d)
}

// Retrier executes operations under a Policy. The zero value (plus a
// Policy) uses the real clock and a time-seeded jitter source; tests
// inject Sleep and Rand for instant, reproducible schedules.
type Retrier struct {
	Policy Policy
	// Sleep waits for d or until ctx is cancelled, returning ctx's
	// error in the latter case (nil → real clock).
	Sleep func(ctx context.Context, d time.Duration) error
	// Rand supplies jitter (nil → a private time-seeded source).
	// Retrier methods are not safe for concurrent use when Rand is
	// shared; give each goroutine its own Retrier.
	Rand *rand.Rand
}

// jittered applies the policy's jitter to d, clamped to [0, Max].
func (r *Retrier) jittered(d time.Duration) time.Duration {
	p := r.Policy
	if d <= 0 || p.Jitter == 0 {
		return d
	}
	if r.Rand == nil {
		r.Rand = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	// Uniform in [1-Jitter, 1+Jitter].
	f := 1 + p.Jitter*(2*r.Rand.Float64()-1)
	j := time.Duration(float64(d) * f)
	if j > p.Max {
		j = p.Max
	}
	if j < 0 {
		j = 0
	}
	return j
}

func realSleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Do runs op under the retrier's policy: attempt, and on an error
// sleep the jittered exponential delay and attempt again, until op
// succeeds, the attempt budget is exhausted, or ctx is cancelled. The
// returned error is nil on success, ctx's error on cancellation, and
// otherwise the last attempt's error.
func (r *Retrier) Do(ctx context.Context, op func() error) error {
	p := r.Policy.Normalize()
	r.Policy = p
	sleep := r.Sleep
	if sleep == nil {
		sleep = realSleep
	}
	var last error
	for attempt := 0; p.Attempts <= 0 || attempt < p.Attempts; attempt++ {
		if d := r.jittered(p.Delay(attempt)); d > 0 || attempt > 0 {
			if err := sleep(ctx, d); err != nil {
				return err
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		last = op()
		if last == nil {
			return nil
		}
	}
	return last
}

// Retry runs op under p with the real clock — the common entry point:
//
//	err := backoff.Retry(ctx, backoff.Policy{Attempts: 5}, dial)
func Retry(ctx context.Context, p Policy, op func() error) error {
	r := &Retrier{Policy: p}
	return r.Do(ctx, op)
}
