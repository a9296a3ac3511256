package backoff

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"
)

// fakeClock records requested sleeps without waiting.
type fakeClock struct {
	slept []time.Duration
}

func (c *fakeClock) sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.slept = append(c.slept, d)
	return nil
}

func TestDelaySchedule(t *testing.T) {
	p := Policy{Base: 100 * time.Millisecond, Max: 2 * time.Second, Factor: 2}.Normalize()
	want := []time.Duration{
		0,
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		1600 * time.Millisecond,
		2 * time.Second, // capped
		2 * time.Second,
	}
	for n, w := range want {
		if got := p.Delay(n); got != w {
			t.Errorf("Delay(%d) = %v, want %v", n, got, w)
		}
	}
}

func TestRetrySucceedsAfterFailures(t *testing.T) {
	clock := &fakeClock{}
	r := &Retrier{
		Policy: Policy{Base: 10 * time.Millisecond, Max: 40 * time.Millisecond, Factor: 2, Attempts: 10},
		Sleep:  clock.sleep,
	}
	fails := 3
	err := r.Do(context.Background(), func() error {
		if fails > 0 {
			fails--
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	// 4 attempts: the 2nd..4th each slept once (jittered 10, 20, 40ms).
	if len(clock.slept) != 3 {
		t.Fatalf("slept %d times (%v), want 3", len(clock.slept), clock.slept)
	}
	for i, d := range clock.slept {
		base := 10 * time.Millisecond << i
		lo := time.Duration(float64(base) * 0.8)
		hi := time.Duration(float64(base) * 1.2)
		if hi > 40*time.Millisecond {
			hi = 40 * time.Millisecond
		}
		if d < lo || d > hi {
			t.Errorf("sleep %d = %v outside jitter window [%v, %v]", i, d, lo, hi)
		}
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	clock := &fakeClock{}
	r := &Retrier{
		Policy: Policy{Base: time.Millisecond, Attempts: 4, Jitter: 0},
		Sleep:  clock.sleep,
	}
	calls := 0
	sentinel := errors.New("still down")
	err := r.Do(context.Background(), func() error { calls++; return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
	if calls != 4 {
		t.Fatalf("op ran %d times, want 4", calls)
	}
}

func TestRetryHonorsContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	r := &Retrier{
		Policy: Policy{Base: time.Millisecond, Jitter: 0}, // unlimited attempts
		Sleep: func(ctx context.Context, d time.Duration) error {
			cancel() // cancelled while waiting for the next attempt
			return ctx.Err()
		},
	}
	calls := 0
	err := r.Do(ctx, func() error { calls++; return errors.New("transient") })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Fatalf("op ran %d times, want 1", calls)
	}
}

func TestPreCancelledContextRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := Retry(ctx, Policy{Attempts: 3}, func() error { calls++; return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 0 {
		t.Fatalf("op ran %d times on a dead context, want 0", calls)
	}
}

func TestJitterBoundsAndDeterminism(t *testing.T) {
	p := Policy{Base: 100 * time.Millisecond, Max: time.Second, Factor: 2, Jitter: 0.5}.Normalize()
	mk := func() *Retrier {
		return &Retrier{Policy: p, Rand: rand.New(rand.NewSource(7))}
	}
	a, b := mk(), mk()
	for n := 1; n < 6; n++ {
		d := p.Delay(n)
		ja := a.jittered(d)
		if jb := b.jittered(d); ja != jb {
			t.Fatalf("same seed diverged at attempt %d: %v != %v", n, ja, jb)
		}
		lo := time.Duration(float64(d) * 0.5)
		hi := time.Duration(float64(d) * 1.5)
		if hi > p.Max {
			hi = p.Max
		}
		if ja < lo || ja > hi {
			t.Fatalf("jittered(%v) = %v outside [%v, %v]", d, ja, lo, hi)
		}
	}
}

func TestNormalizeResolvesDefaults(t *testing.T) {
	p := Policy{}.Normalize()
	if p.Base != 100*time.Millisecond || p.Max != 5*time.Second || p.Factor != 2 || p.Jitter != 0 || p.Attempts != 0 {
		t.Fatalf("Policy{}.Normalize() = %+v", p)
	}
	for _, c := range []struct{ jitter, want float64 }{{-1, 0.2}, {0.3, 0.3}, {3, 1}} {
		if got := (Policy{Jitter: c.jitter}).Normalize().Jitter; got != c.want {
			t.Errorf("Jitter %v normalizes to %v, want %v", c.jitter, got, c.want)
		}
	}
	if got := (Policy{Factor: 0.5}).Normalize().Factor; got != 2 {
		t.Errorf("Factor 0.5 normalizes to %v, want 2", got)
	}
}

// TestRealSleep: the real clock waits out a short delay, returns at
// once with the context's error when it is cancelled, and does not
// wait at all for a zero delay.
func TestRealSleep(t *testing.T) {
	live := context.Background()
	if err := realSleep(live, 0); err != nil {
		t.Fatalf("zero delay on a live context: %v", err)
	}
	start := time.Now()
	if err := realSleep(live, 5*time.Millisecond); err != nil || time.Since(start) < 5*time.Millisecond {
		t.Fatalf("5ms sleep returned %v after %v", err, time.Since(start))
	}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if err := realSleep(dead, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("zero delay on a cancelled context: %v", err)
	}
	if err := realSleep(dead, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("hour-long sleep on a cancelled context: %v", err)
	}
}

func TestRetryFirstAttemptDoesNotSleep(t *testing.T) {
	clock := &fakeClock{}
	r := &Retrier{Policy: Policy{Jitter: -1}, Sleep: clock.sleep}
	calls := 0
	if err := r.Do(context.Background(), func() error { calls++; return nil }); err != nil {
		t.Fatal(err)
	}
	if calls != 1 || len(clock.slept) != 0 {
		t.Fatalf("op ran %d times after %d sleeps, want once and none", calls, len(clock.slept))
	}
}
