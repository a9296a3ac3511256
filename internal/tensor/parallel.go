package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The kernels in this package shard by output rows above a size
// threshold. Sharding is bit-deterministic: every output element is
// produced by exactly one goroutine running the same serial reference
// kernel over its row range, so the floating-point accumulation order
// per element is identical at any worker count.

// workerCount holds the configured kernel worker budget. 0 means "use
// runtime.NumCPU()". Accessed atomically so tests and the CLI can
// adjust it while kernels run on other goroutines.
var workerCount atomic.Int64

// SetWorkers sets the maximum number of goroutines the sharded kernels
// may use. n <= 0 restores the default (runtime.NumCPU()); n == 1
// forces the serial reference path everywhere. The previous setting is
// returned so callers can restore it.
func SetWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(workerCount.Swap(int64(n)))
}

// Workers reports the effective kernel worker budget.
func Workers() int {
	if n := int(workerCount.Load()); n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// ParallelFor runs body over [0, n) on the calling goroutine and at
// most Workers()-1 pool helpers, blocking until every unit is done.
// See ParallelForN for the contract.
func ParallelFor(n int, body func(shard, lo, hi int)) {
	ParallelForN(Workers(), n, body)
}

// The kernel pool. Up to runtime.NumCPU()-1 helper goroutines, started
// on the first sharded call, live for the life of the process. A
// caller posts its job in the one job slot, wakes parked helpers, and
// then works through the job itself, a chunk at a time from an atomic
// counter, with any helpers that join it; so a helper that arrives late
// takes a share instead of holding the call up, and a caller never
// waits for a helper to start. When the slot is taken (a concurrent
// caller, or a call nested inside a body) the job runs whole on the
// calling goroutine. A helper that finds no job spins, yielding its P,
// for spinWindow and then parks until a caller wakes it: the spin
// spans the serial gaps between one training step's kernel calls, so a
// helper is seldom woken from a park inside a step.
const (
	// chunksPerSeat is how many chunks a job is cut into per goroutine
	// that may run it: enough that a late helper still finds work.
	chunksPerSeat = 4
	// spinWindow is how long an idle helper keeps looking for a job
	// before it parks.
	spinWindow = 200 * time.Microsecond
	// closed marks a finished job's seats: no helper joins it any more.
	closed = 1 << 62
)

var (
	// posted holds the job helpers may join, nil when there is none.
	posted atomic.Pointer[job]
	// parked counts the helpers blocked on wakeup, which holds a
	// token for each helper a caller wakes: at most one per helper.
	parked    atomic.Int64
	wakeup    chan struct{}
	startPool sync.Once
	helpers   int
)

// job is one ParallelForN call in the pool: its n units, cut into
// chunks contiguous chunks, run on at most seats goroutines.
type job struct {
	body         func(shard, lo, hi int)
	n, chunks    int
	seats        int64
	taken, left  atomic.Int64 // seats taken (the caller's included), helpers done
	next, shards atomic.Int64 // the next chunk and the next shard index to hand out
}

// poolHelpers returns the number of helpers, starting them on the
// first call.
func poolHelpers() int {
	startPool.Do(func() {
		helpers = runtime.NumCPU() - 1
		wakeup = make(chan struct{}, helpers)
		for i := 0; i < helpers; i++ {
			go helper()
		}
	})
	return helpers
}

// ParallelForN splits [0, n) into contiguous chunks and runs
// body(shard, lo, hi) on each, blocking until every chunk is done. The
// chunks run on the calling goroutine and on at most min(w, n)-1 pool
// helpers that join while units are left; a goroutine takes one shard
// index at its first chunk and passes it to every chunk it runs. So
// shard indices are dense, start at 0 and stay below min(w, n), and one
// shard index never runs two chunks at once: a caller can preallocate
// min(w, n) scratch buffers and index them by shard without locking.
// Each unit runs exactly once, through the same body, so a body that
// computes each unit independently of the others gives the same bits at
// every w. With w <= 1, n <= 1 or a single CPU, body(0, 0, n) runs on
// the calling goroutine. A caller never waits for a busy helper: a call
// made while the pool holds another call's job, from another goroutine
// or from inside a body, runs body(0, 0, n) on the calling goroutine.
func ParallelForN(w, n int, body func(shard, lo, hi int)) {
	if n <= 0 {
		return
	}
	seats := min(w, n)
	if seats > 1 {
		seats = min(seats, poolHelpers()+1)
	}
	if seats <= 1 {
		body(0, 0, n)
		return
	}
	j := &job{body: body, n: n, chunks: min(n, seats*chunksPerSeat), seats: int64(seats)}
	j.taken.Store(1)
	if !posted.CompareAndSwap(nil, j) {
		body(0, 0, n)
		return
	}
	defer j.finish()
	wake(min(int64(seats-1), parked.Load()))
	j.run()
}

// wake unparks up to k helpers.
func wake(k int64) {
	for ; k > 0; k-- {
		select {
		case wakeup <- struct{}{}:
		default:
			return
		}
	}
}

// run takes chunks of j until none is left.
func (j *job) run() {
	shard := -1
	for {
		c := int(j.next.Add(1) - 1)
		if c >= j.chunks {
			return
		}
		if shard < 0 {
			shard = int(j.shards.Add(1) - 1)
		}
		j.body(shard, c*j.n/j.chunks, (c+1)*j.n/j.chunks)
	}
}

// finish takes j out of the slot, closes its seats and waits for the
// helpers that took one to run out of chunks.
func (j *job) finish() {
	posted.Store(nil) // only the caller that posted a job takes it out
	joined := j.taken.Swap(closed) - 1
	for j.left.Load() < joined {
		runtime.Gosched()
	}
	j.body = nil // a helper may hold j until its next job
}

// help runs chunks of j on a helper if j has a seat free, and reports
// whether it took one. A finished job has none.
func (j *job) help() bool {
	for {
		t := j.taken.Load()
		if t >= j.seats {
			return false
		}
		if j.taken.CompareAndSwap(t, t+1) {
			break
		}
	}
	j.run()
	j.left.Add(1)
	return true
}

// helper is a pool goroutine: it joins each job posted in the slot
// once, spins for spinWindow after its last job, and then parks.
func helper() {
	var last *job
	for {
		idle := time.Now()
		for time.Since(idle) < spinWindow {
			if j := posted.Load(); j != nil && j != last {
				last = j
				if j.help() {
					idle = time.Now()
				}
				continue
			}
			runtime.Gosched()
		}
		parked.Add(1)
		if j := posted.Load(); j == nil || j == last {
			<-wakeup
		}
		parked.Add(-1)
	}
}
