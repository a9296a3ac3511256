// Package dist shards defect-evaluation sweeps across worker
// processes: a coordinator owns the Monte-Carlo run space and hands
// out run-range leases over a length-prefixed JSON protocol on TCP;
// workers evaluate leases with core.EvalDefectRuns and stream results
// back.
//
// # Determinism
//
// Run r of rate index i always draws its faults from
// fault.RunRNG(DefectEval.RateSeed(i), r) — position alone — so any
// partition of the run space into leases, evaluated by any set of
// processes in any order, folds back into the exact per-run accuracy
// sequence a single-process core.EvalDefectSweep produces. The
// coordinator folds results by run index and summarizes per rate, so
// the distributed answer is byte-identical at any worker count and
// under any kill schedule. The determinism and chaos suites pin this.
//
// # Fault tolerance
//
// Leases carry a TTL; workers heartbeat at TTL/4 while evaluating. A
// lease whose deadline passes (stalled worker) or whose worker's
// connection drops (dead worker) is re-issued to the next worker that
// asks. A worker that reports an evaluation error surrenders the
// lease for re-issue; a lease that fails MaxLeaseAttempts times fails
// the sweep (unless local fallback can still run it). Workers dial
// and re-dial the coordinator under jittered exponential backoff
// (internal/dist/backoff), so a coordinator restart — which reloads
// folded results from its internal/ckpt checkpoint — picks the fleet
// back up without losing completed work.
//
// # Degradation ladder
//
//  1. Healthy pool: leases round-robin to whoever asks first.
//  2. Worker lost or stalled: its leases are re-issued to the
//     survivors (obs events dist.worker.lost / dist.reissue).
//  3. Empty pool (no worker ever joined, or all died) for longer than
//     FallbackAfter: the coordinator executes pending leases in-process
//     through Config.Local (dist.fallback events) — the sweep always
//     completes, just slower.
//  4. Cancellation (SIGTERM): assignment stops, in-flight leases get a
//     grace period to land, and the fully-completed rate prefix is
//     returned with ctx's error — the CLI renders the partial table
//     and exits 0.
package dist

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"slices"
	"sync"
	"time"

	"github.com/ftpim/ftpim/internal/ckpt"
	"github.com/ftpim/ftpim/internal/core"
	"github.com/ftpim/ftpim/internal/metrics"
	"github.com/ftpim/ftpim/internal/obs"
)

// LocalFunc evaluates one lease in the coordinator's own process —
// the zero-worker fallback. It must obey the same positional-RNG
// contract as a worker (core.EvalDefectRuns does).
type LocalFunc func(ctx context.Context, l Lease) ([]float64, error)

// Config tunes a Coordinator. Zero values resolve to documented
// defaults via Normalize.
type Config struct {
	// LeaseRuns is the number of Monte-Carlo runs per lease (<=0 → 8).
	// Smaller leases re-issue less work on a worker death; larger ones
	// amortize protocol overhead.
	LeaseRuns int
	// LeaseTTL is the heartbeat deadline: a lease neither completed
	// nor heartbeated within it is re-issued (<=0 → 10s).
	LeaseTTL time.Duration
	// FallbackAfter is how long the pool must be empty (from start, or
	// from the last worker's departure) before pending leases execute
	// in-process via Local (<=0 → 3s). Ignored when Local is nil.
	FallbackAfter time.Duration
	// DoneLinger keeps the coordinator answering for this long after
	// the sweep completes, so workers still evaluating a re-issued
	// duplicate get a clean MsgDone instead of a connection error
	// (<=0 → 500ms).
	DoneLinger time.Duration
	// DrainGrace bounds how long a cancelled coordinator waits for
	// outstanding leases to land before returning partial results
	// (<=0 → 1s).
	DrainGrace time.Duration
	// MaxLeaseAttempts caps how many times one lease may fail with a
	// worker error before the sweep is failed (<=0 → 5). With Local
	// set the lease stays eligible for in-process fallback instead.
	MaxLeaseAttempts int
	// RetryHint is the poll interval sent to workers when no lease is
	// pending (<=0 → 100ms).
	RetryHint time.Duration

	// Eval supplies the sweep protocol: Runs, Seed (RateSeed derives
	// each rate's stream), Batch, and the fault Scenario. Normalized
	// by New.
	Eval core.DefectEval
	// Rates is the sweep's fault-rate axis (required).
	Rates []float64
	// Job is the spec sent to workers. New fills Rates/Runs/Seed/Batch
	// from Eval and, when empty, Scenario from Eval's scenario spec;
	// Preset/Dataset identify the model and are the caller's business.
	Job Job
	// Local, when set, evaluates leases in-process whenever the pool
	// is empty — the documented zero-worker fallback. Nil means the
	// coordinator waits for workers indefinitely.
	Local LocalFunc
	// Ckpt, when set, persists folded results after every lease so a
	// restarted coordinator (same Config, resume-enabled ckpt.Run)
	// resumes instead of re-evaluating completed ranges.
	Ckpt *ckpt.Run
	// Sink receives dist.* and eval.rate events (nil → obs.Null).
	Sink obs.Sink
}

// Normalize resolves zero-valued tuning fields to their defaults.
func (c Config) Normalize() Config {
	if c.LeaseRuns <= 0 {
		c.LeaseRuns = 8
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.FallbackAfter <= 0 {
		c.FallbackAfter = 3 * time.Second
	}
	if c.DoneLinger <= 0 {
		c.DoneLinger = 500 * time.Millisecond
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = time.Second
	}
	if c.MaxLeaseAttempts <= 0 {
		c.MaxLeaseAttempts = 5
	}
	if c.RetryHint <= 0 {
		c.RetryHint = 100 * time.Millisecond
	}
	c.Eval = c.Eval.Normalize()
	c.Sink = obs.Or(c.Sink)
	return c
}

// lease is the coordinator's view of one work unit.
type lease struct {
	Lease
	attempts int // failed evaluation attempts
}

// outstanding tracks one issued lease.
type outstanding struct {
	l      *lease
	worker string
	expiry time.Time
}

// workerConn is one registered pool member.
type workerConn struct {
	id     string
	pid    int
	fc     *frameConn
	leases int // outstanding leases held
}

// localWorker is the pseudo worker id in-process fallback runs under.
const localWorker = "(local)"

// Coordinator owns one sweep's run space and the worker pool
// evaluating it. Create with New, run with Serve or Run.
type Coordinator struct {
	cfg   Config
	sink  obs.Sink
	job   Job
	rates []float64

	mu         sync.Mutex
	accs       [][]float64 // [rate][run] folded accuracies
	foldedRun  [][]bool
	remaining  int // runs not yet folded
	leases     map[int64]*lease
	pending    []*lease // FIFO; re-issues go to the front
	out        map[int64]*outstanding
	workers    map[string]*workerConn
	lastWorker time.Time // start, last join, or last departure
	draining   bool
	fatal      error
	reissues   int
	restored   int // runs prefolded from a checkpoint

	done     chan struct{}
	doneOnce sync.Once
}

// New builds a Coordinator for cfg's sweep and, when cfg.Ckpt is a
// resume-enabled run, pre-folds results from the newest intact
// checkpoint whose job matches.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.Normalize()
	if len(cfg.Rates) == 0 {
		return nil, fmt.Errorf("dist: no rates to sweep")
	}
	for i, r := range cfg.Rates {
		if math.IsNaN(r) || r < 0 || r > 1 {
			return nil, fmt.Errorf("dist: rates[%d] = %v is outside [0, 1]", i, r)
		}
	}
	job := cfg.Job
	job.Rates = cfg.Rates
	job.Runs = cfg.Eval.Runs
	job.Seed = cfg.Eval.Seed
	job.Batch = cfg.Eval.Batch
	if job.Scenario == "" {
		job.Scenario = cfg.Eval.Scenario.Spec()
	}
	c := &Coordinator{
		cfg:        cfg,
		sink:       cfg.Sink,
		job:        job,
		rates:      cfg.Rates,
		leases:     map[int64]*lease{},
		out:        map[int64]*outstanding{},
		workers:    map[string]*workerConn{},
		lastWorker: time.Now(),
		done:       make(chan struct{}),
	}
	c.accs = make([][]float64, len(c.rates))
	c.foldedRun = make([][]bool, len(c.rates))
	for i, rate := range c.rates {
		n := cfg.Eval.Runs
		if rate == 0 {
			// No stochasticity at rate zero: one clean pass, exactly
			// like EvalDefect's short-circuit.
			n = 1
		}
		c.accs[i] = make([]float64, n)
		c.foldedRun[i] = make([]bool, n)
		c.remaining += n
	}
	c.restoreCkpt()
	c.buildLeases()
	if c.remaining == 0 {
		c.signalDone()
	}
	return c, nil
}

// buildLeases chunks every rate's unfolded run space into pending
// leases. Must run before Serve; callers hold no lock yet.
func (c *Coordinator) buildLeases() {
	id := int64(0)
	for i := range c.rates {
		runs := len(c.accs[i])
		for start := 0; start < runs; start += c.cfg.LeaseRuns {
			end := min(start+c.cfg.LeaseRuns, runs)
			if c.allFolded(i, start, end) {
				continue // fully restored from checkpoint
			}
			id++
			l := &lease{Lease: Lease{
				ID:        id,
				RateIndex: i,
				Rate:      c.rates[i],
				Seed:      c.cfg.Eval.RateSeed(i),
				Start:     start,
				End:       end,
				TTLMs:     c.cfg.LeaseTTL.Milliseconds(),
			}}
			c.leases[id] = l
			c.pending = append(c.pending, l)
		}
	}
}

// Run listens on addr and serves the sweep to completion (or
// cancellation). See Serve.
func (c *Coordinator) Run(ctx context.Context, addr string) ([]metrics.Summary, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return c.Serve(ctx, lis)
}

// Serve accepts workers on lis and runs the sweep to completion,
// returning one Summary per rate — byte-identical to a single-process
// core.EvalDefectSweep with the same DefectEval and rates. On
// cancellation it drains (assignment stops, outstanding leases get
// DrainGrace to land) and returns the summaries of the
// fully-completed rate prefix together with ctx's error, mirroring
// EvalDefectSweep's partial-result contract.
func (c *Coordinator) Serve(ctx context.Context, lis net.Listener) ([]metrics.Summary, error) {
	defer lis.Close()
	ictx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); c.acceptLoop(lis) }()
	go func() { defer wg.Done(); c.monitor(ictx) }()
	if c.cfg.Local != nil {
		wg.Add(1)
		go func() { defer wg.Done(); c.fallbackLoop(ictx) }()
	}

	var err error
	select {
	case <-c.done:
		c.mu.Lock()
		err = c.fatal
		c.mu.Unlock()
		if err == nil {
			// Give workers still chewing a re-issued duplicate a clean
			// goodbye: broadcast done, keep answering for the linger.
			c.broadcast(Message{Type: MsgDone})
			timedWait(ctx, c.cfg.DoneLinger)
		}
	case <-ctx.Done():
		c.mu.Lock()
		c.draining = true
		c.mu.Unlock()
		c.awaitOutstanding(c.cfg.DrainGrace)
		err = ctx.Err()
	}
	cancel()
	lis.Close()
	c.closeConns()
	wg.Wait()
	return c.completedSummaries(), err
}

// timedWait sleeps for d or until ctx is cancelled.
func timedWait(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// awaitOutstanding polls until no lease is outstanding or the grace
// period elapses — in-flight results folded during the window count
// toward the partial summaries.
func (c *Coordinator) awaitOutstanding(grace time.Duration) {
	deadline := time.Now().Add(grace)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		n := len(c.out)
		c.mu.Unlock()
		if n == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// completedSummaries summarizes the fully-folded rate prefix (all
// rates after a completed sweep) and emits one eval.rate event per
// summarized rate.
func (c *Coordinator) completedSummaries() []metrics.Summary {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []metrics.Summary
	for i := range c.rates {
		if !c.allFolded(i, 0, len(c.accs[i])) {
			break
		}
		s := metrics.Summarize(c.accs[i])
		out = append(out, s)
		if c.sink.Enabled() {
			c.sink.Emit(obs.Event{Kind: obs.KindEvalRate, Rate: c.rates[i], Acc: s.Mean, N: s.N})
		}
	}
	return out
}

func (c *Coordinator) signalDone() {
	c.doneOnce.Do(func() { close(c.done) })
}

// broadcast sends m to every registered worker (best effort).
func (c *Coordinator) broadcast(m Message) {
	c.mu.Lock()
	conns := make([]*frameConn, 0, len(c.workers))
	for _, w := range c.workers {
		conns = append(conns, w.fc)
	}
	c.mu.Unlock()
	for _, fc := range conns {
		fc.send(m)
	}
}

func (c *Coordinator) closeConns() {
	c.mu.Lock()
	conns := make([]*frameConn, 0, len(c.workers))
	for _, w := range c.workers {
		conns = append(conns, w.fc)
	}
	c.mu.Unlock()
	for _, fc := range conns {
		fc.close()
	}
}

func (c *Coordinator) acceptLoop(lis net.Listener) {
	for {
		conn, err := lis.Accept()
		if err != nil {
			return // listener closed: Serve is exiting
		}
		go c.handleConn(conn)
	}
}

// handleConn owns one worker connection: registration, then the
// lease_req/heartbeat/result loop. Any read error (including the
// missed-frame deadline) unregisters the worker and re-queues its
// outstanding leases.
func (c *Coordinator) handleConn(conn net.Conn) {
	fc := newFrameConn(conn)
	defer fc.close()
	m, err := fc.recv(10 * time.Second)
	if err != nil || m.Type != MsgHello {
		fc.send(Message{Type: MsgError, Err: "expected hello"})
		return
	}
	w := c.register(m.Worker, m.PID, fc)
	defer c.unregister(w, "connection closed")
	if err := fc.send(Message{Type: MsgJob, Job: &c.job}); err != nil {
		return
	}
	// A healthy worker is never silent longer than the heartbeat
	// interval (TTL/4) plus the nolease poll; 2×TTL of silence means
	// the peer is gone or wedged — either way the monitor has already
	// re-issued its leases, so drop the connection.
	readTimeout := 2 * c.cfg.LeaseTTL
	for {
		m, err := fc.recv(readTimeout)
		if err != nil {
			return
		}
		switch m.Type {
		case MsgLeaseReq:
			if err := fc.send(c.assign(w)); err != nil {
				return
			}
		case MsgHeartbeat:
			c.heartbeat(w.id, m.LeaseID)
		case MsgResult:
			if m.Err != "" {
				c.failLease(w.id, m.LeaseID, m.Err)
			} else {
				c.fold(w.id, m.LeaseID, m.Accs)
			}
		case MsgError:
			return
		default:
			fc.send(Message{Type: MsgError, Err: fmt.Sprintf("unexpected %s", m.Type)})
			return
		}
	}
}

// register adds (or replaces) a pool member. A reconnecting worker
// reuses its id: the stale connection is closed and its handler's
// unregister becomes a no-op, while the leases it held are re-queued
// immediately — the reconnected process has abandoned them.
func (c *Coordinator) register(id string, pid int, fc *frameConn) *workerConn {
	var evs []obs.Event
	c.mu.Lock()
	if old, ok := c.workers[id]; ok {
		old.fc.close()
		evs = c.requeueWorkerLocked(id, "worker reconnected")
	}
	w := &workerConn{id: id, pid: pid, fc: fc}
	c.workers[id] = w
	c.lastWorker = time.Now()
	n := len(c.workers)
	c.mu.Unlock()
	c.emit(evs)
	if c.sink.Enabled() {
		c.sink.Emit(obs.Event{Kind: obs.KindDistWorkerJoin, Key: id, N: n})
	}
	return w
}

// unregister removes w (if still the registered holder of its id) and
// re-queues its outstanding leases.
func (c *Coordinator) unregister(w *workerConn, reason string) {
	c.mu.Lock()
	if c.workers[w.id] != w {
		c.mu.Unlock()
		return // replaced by a reconnect; nothing to clean up
	}
	delete(c.workers, w.id)
	c.lastWorker = time.Now()
	n := len(c.workers)
	evs := c.requeueWorkerLocked(w.id, reason)
	done := c.remaining == 0
	c.mu.Unlock()
	c.emit(evs)
	if !done && c.sink.Enabled() {
		c.sink.Emit(obs.Event{Kind: obs.KindDistWorkerLost, Key: w.id, N: n, Msg: reason})
	}
}

// requeueWorkerLocked re-queues every lease outstanding to worker id
// and returns the dist.reissue events to emit. Caller holds c.mu.
func (c *Coordinator) requeueWorkerLocked(id, reason string) []obs.Event {
	var evs []obs.Event
	for leaseID, o := range c.out {
		if o.worker == id {
			c.revokeLocked(leaseID)
			evs = c.requeueLocked(evs, o.l, id, reason)
		}
	}
	return evs
}

// revokeLocked takes lease id off the outstanding table, if it is
// there, and releases its holder's lease count. Caller holds c.mu.
func (c *Coordinator) revokeLocked(id int64) {
	if o := c.out[id]; o != nil {
		delete(c.out, id)
		if w := c.workers[o.worker]; w != nil {
			w.leases--
		}
	}
}

// requeueLocked puts l at the front of pending for re-issue and counts
// it. While runs remain it appends a dist.reissue event to evs, which
// the caller emits once c.mu is released. Caller holds c.mu.
func (c *Coordinator) requeueLocked(evs []obs.Event, l *lease, worker, reason string) []obs.Event {
	c.pending = append([]*lease{l}, c.pending...)
	c.reissues++
	if c.remaining > 0 && c.sink.Enabled() {
		evs = append(evs, obs.Event{
			Kind: obs.KindDistReissue, Key: worker, Run: int(l.ID),
			Rate: l.Rate, N: l.Runs(), Msg: reason,
		})
	}
	return evs
}

// emit sends events collected under c.mu.
func (c *Coordinator) emit(evs []obs.Event) {
	for _, e := range evs {
		c.sink.Emit(e)
	}
}

// allFolded reports whether runs [start, end) of rate i are all
// folded. Caller holds c.mu, or runs before Serve.
func (c *Coordinator) allFolded(i, start, end int) bool {
	return !slices.Contains(c.foldedRun[i][start:end], false)
}

// assign hands the next pending lease to w, or reports done/nolease.
func (c *Coordinator) assign(w *workerConn) Message {
	c.mu.Lock()
	if c.remaining == 0 || c.fatal != nil {
		c.mu.Unlock()
		return Message{Type: MsgDone}
	}
	if c.draining || len(c.pending) == 0 {
		retry := c.cfg.RetryHint.Milliseconds()
		c.mu.Unlock()
		return Message{Type: MsgNoLease, RetryMs: retry}
	}
	l := c.pending[0]
	c.pending = c.pending[1:]
	c.out[l.ID] = &outstanding{l: l, worker: w.id, expiry: time.Now().Add(c.cfg.LeaseTTL)}
	w.leases++
	c.mu.Unlock()
	if c.sink.Enabled() {
		c.sink.Emit(obs.Event{Kind: obs.KindDistLease, Key: w.id, Run: int(l.ID), Rate: l.Rate, N: l.Runs()})
	}
	return Message{Type: MsgLease, Worker: w.id, Lease: &l.Lease}
}

// heartbeat extends a lease's deadline. Heartbeats for revoked or
// unknown leases are ignored — the worker will learn its fate when it
// reports the result.
func (c *Coordinator) heartbeat(workerID string, leaseID int64) {
	c.mu.Lock()
	if o := c.out[leaseID]; o != nil && o.worker == workerID {
		o.expiry = time.Now().Add(c.cfg.LeaseTTL)
	}
	c.mu.Unlock()
}

// fold merges one lease's per-run accuracies into the sweep at their
// absolute run indices. Folding is idempotent: a late result for a
// re-issued lease carries bit-identical values (positional RNG), so
// whichever copy lands first wins and the rest are no-ops.
func (c *Coordinator) fold(workerID string, leaseID int64, accs []float64) {
	c.mu.Lock()
	l := c.leases[leaseID]
	if l == nil {
		c.mu.Unlock()
		return // unknown lease (stale incarnation); nothing to fold
	}
	if o := c.out[leaseID]; o != nil && o.worker == workerID {
		c.revokeLocked(leaseID)
	}
	if len(accs) != l.Runs() {
		c.mu.Unlock()
		c.failLease(workerID, leaseID, fmt.Sprintf("result has %d accuracies, lease covers %d runs", len(accs), l.Runs()))
		return
	}
	i := l.RateIndex
	newly := 0
	for k, run := 0, l.Start; run < l.End; k, run = k+1, run+1 {
		if !c.foldedRun[i][run] {
			c.foldedRun[i][run] = true
			c.accs[i][run] = accs[k]
			newly++
		}
	}
	c.remaining -= newly
	doneNow := c.remaining == 0
	var sections map[string][]byte
	if newly > 0 && c.cfg.Ckpt != nil {
		sections = c.snapshotLocked()
	}
	c.mu.Unlock()
	if sections != nil {
		c.saveCkpt(sections)
	}
	if doneNow {
		c.signalDone()
	}
}

// failLease records one failed evaluation attempt and re-queues the
// lease. A lease that keeps failing across MaxLeaseAttempts workers
// fails the sweep — unless local fallback exists to give it a final
// in-process home.
func (c *Coordinator) failLease(workerID string, leaseID int64, reason string) {
	c.mu.Lock()
	l := c.leases[leaseID]
	c.revokeLocked(leaseID)
	if l == nil || c.allFolded(l.RateIndex, l.Start, l.End) {
		c.mu.Unlock()
		return
	}
	l.attempts++
	var evs []obs.Event
	fatal := l.attempts >= c.cfg.MaxLeaseAttempts && c.cfg.Local == nil
	if fatal {
		c.fatal = fmt.Errorf("dist: lease %d (rate %g, runs [%d,%d)) failed %d times, last: %s",
			leaseID, l.Rate, l.Start, l.End, l.attempts, reason)
	} else {
		evs = c.requeueLocked(evs, l, workerID, reason)
	}
	c.mu.Unlock()
	c.emit(evs)
	if fatal {
		c.signalDone()
	}
}

// monitor re-issues leases whose heartbeat deadline has passed — the
// stalled-worker path (a dead worker's connection error is faster).
func (c *Coordinator) monitor(ctx context.Context) {
	tick := c.cfg.LeaseTTL / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		now := time.Now()
		var evs []obs.Event
		c.mu.Lock()
		for leaseID, o := range c.out {
			if now.After(o.expiry) {
				c.revokeLocked(leaseID)
				evs = c.requeueLocked(evs, o.l, o.worker, "missed heartbeat")
			}
		}
		c.mu.Unlock()
		c.emit(evs)
	}
}

// fallbackLoop executes pending leases in-process whenever the worker
// pool has been empty for FallbackAfter — covering both "no worker
// ever joined" and "every worker died" without ever hanging the
// sweep.
func (c *Coordinator) fallbackLoop(ctx context.Context) {
	t := time.NewTicker(20 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-c.done:
			return
		case <-t.C:
		}
		c.mu.Lock()
		idle := len(c.workers) == 0 && time.Since(c.lastWorker) >= c.cfg.FallbackAfter
		if !idle || c.draining || c.fatal != nil || len(c.pending) == 0 {
			c.mu.Unlock()
			continue
		}
		l := c.pending[0]
		c.pending = c.pending[1:]
		// Registered as outstanding so a drain waits for it; the expiry
		// is moot (the local evaluator cannot stall silently).
		c.out[l.ID] = &outstanding{l: l, worker: localWorker, expiry: time.Now().Add(24 * time.Hour)}
		c.mu.Unlock()
		if c.sink.Enabled() {
			c.sink.Emit(obs.Event{Kind: obs.KindDistFallback, Run: int(l.ID), Rate: l.Rate, N: l.Runs()})
		}
		accs, err := c.cfg.Local(ctx, l.Lease)
		if err != nil {
			// A run cut short by shutdown goes back to pending like a
			// failed one; with Local set, attempts never fail the sweep.
			c.failLease(localWorker, l.ID, err.Error())
			if ctx.Err() != nil {
				return
			}
			continue
		}
		c.fold(localWorker, l.ID, accs)
	}
}

// Stats is a point-in-time snapshot of the coordinator's pool and
// progress, for tests and operator introspection.
type Stats struct {
	Workers     int
	Pending     int
	Outstanding int
	FoldedRuns  int
	TotalRuns   int
	Reissues    int
	Restored    int
	// LeasesByWorker maps worker id → outstanding lease count;
	// PIDByWorker maps worker id → the OS pid it reported.
	LeasesByWorker map[string]int
	PIDByWorker    map[string]int
}

// Stats returns a snapshot of pool membership and sweep progress.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	folded := 0
	for i := range c.foldedRun {
		total += len(c.foldedRun[i])
		for _, f := range c.foldedRun[i] {
			if f {
				folded++
			}
		}
	}
	s := Stats{
		Workers:        len(c.workers),
		Pending:        len(c.pending),
		Outstanding:    len(c.out),
		FoldedRuns:     folded,
		TotalRuns:      total,
		Reissues:       c.reissues,
		Restored:       c.restored,
		LeasesByWorker: map[string]int{},
		PIDByWorker:    map[string]int{},
	}
	for id, w := range c.workers {
		s.LeasesByWorker[id] = w.leases
		s.PIDByWorker[id] = w.pid
	}
	return s
}

// ---- checkpointing ----------------------------------------------------

// ckptMeta identifies the sweep a checkpoint belongs to; a restored
// checkpoint whose meta differs is ignored rather than mis-folded.
type ckptMeta struct {
	V   int `json:"v"`
	Job Job `json:"job"`
}

const (
	ckptSectionMeta  = "dist.meta"
	ckptSectionState = "dist.state"
)

// snapshotLocked serializes the folded state. Caller holds c.mu.
func (c *Coordinator) snapshotLocked() map[string][]byte {
	meta, err := json.Marshal(ckptMeta{V: 1, Job: c.job})
	if err != nil {
		return nil
	}
	var state []byte
	state = binary.LittleEndian.AppendUint32(state, uint32(len(c.rates)))
	for i := range c.rates {
		state = binary.LittleEndian.AppendUint32(state, uint32(len(c.accs[i])))
		for run := range c.accs[i] {
			if c.foldedRun[i][run] {
				state = append(state, 1)
			} else {
				state = append(state, 0)
			}
			state = binary.LittleEndian.AppendUint64(state, math.Float64bits(c.accs[i][run]))
		}
	}
	return map[string][]byte{ckptSectionMeta: meta, ckptSectionState: state}
}

func (c *Coordinator) saveCkpt(sections map[string][]byte) {
	path, size, err := c.cfg.Ckpt.Save(sections)
	if err != nil {
		obs.Logf(c.sink, "dist: checkpoint save failed: %v", err)
		return
	}
	if c.sink.Enabled() {
		c.sink.Emit(obs.Event{Kind: obs.KindCkptSave, Key: path, N: size})
	}
}

// restoreCkpt pre-folds results from the newest intact checkpoint
// whose job matches this sweep. Runs during New, before any
// concurrency exists.
func (c *Coordinator) restoreCkpt() {
	if c.cfg.Ckpt == nil {
		return
	}
	sections, path, ok := c.cfg.Ckpt.Load()
	if !ok {
		return
	}
	var meta ckptMeta
	if err := json.Unmarshal(sections[ckptSectionMeta], &meta); err != nil || meta.V != 1 {
		obs.Logf(c.sink, "dist: ignoring checkpoint %s: unreadable meta", path)
		return
	}
	want, _ := json.Marshal(ckptMeta{V: 1, Job: c.job})
	got, _ := json.Marshal(meta)
	if string(want) != string(got) {
		obs.Logf(c.sink, "dist: ignoring checkpoint %s: different sweep", path)
		return
	}
	r := ckpt.NewReader(sections[ckptSectionState])
	if int(r.U32()) != len(c.rates) {
		obs.Logf(c.sink, "dist: ignoring checkpoint %s: rate count mismatch", path)
		return
	}
	folded := make([][]bool, len(c.rates))
	accs := make([][]float64, len(c.rates))
	for i := range c.rates {
		n := len(c.accs[i])
		if int(r.U32()) != n {
			obs.Logf(c.sink, "dist: ignoring checkpoint %s: run count mismatch", path)
			return
		}
		folded[i], accs[i] = make([]bool, n), make([]float64, n)
		for run := range folded[i] {
			folded[i][run] = r.Bool()
			accs[i][run] = r.F64()
		}
	}
	if err := r.Done(); err != nil {
		obs.Logf(c.sink, "dist: ignoring checkpoint %s: state: %v", path, err)
		return
	}
	// Nothing is folded before the restore, so the decoded state
	// replaces the empty one whole.
	c.foldedRun, c.accs = folded, accs
	for i := range folded {
		for _, f := range folded[i] {
			if f {
				c.restored++
			}
		}
	}
	c.remaining -= c.restored
	if c.sink.Enabled() {
		c.sink.Emit(obs.Event{Kind: obs.KindCkptRestore, Key: path, N: c.restored})
	}
}
