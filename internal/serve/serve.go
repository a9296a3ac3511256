// Package serve turns the ftpim engine into a long-running inference
// and defect-evaluation service: an HTTP JSON API with dynamic
// micro-batching, admission control, and graceful drain.
//
// # API
//
//	POST /v1/infer        {"image":[...]}            → {"class":k,"scores":[...],"batch":n}
//	POST /v1/defect-eval  {"rates":[...],"runs":n,…} → {"seed":s,"runs":n,"results":[{rate,n,mean,…}]}
//	POST /v1/stability    {"rates":[...],"runs":n,…} → {"seed":s,…,"results":[{rate,acc_defect,ss,…}]}
//	GET  /v1/healthz                                 → {"status":"ok",…}
//
// Both Monte-Carlo endpoints accept an optional "scenario" spec
// (fault.Parse grammar, e.g. "cluster:len=8"); omitting it keeps the
// server's configured default, so legacy request bodies behave — and
// serialize — exactly as before the field existed.
//
// Malformed requests yield a structured 4xx error envelope
// ({"error":{"code":…,"message":…}}), never a 5xx or a panic.
//
// # Micro-batching
//
// Concurrent infer requests are coalesced by a batcher goroutine: the
// first queued request opens a batch and starts the latency budget
// (Config.BatchWindow); the batch executes as one forward pass when it
// reaches Config.MaxBatch requests or when the budget expires,
// whichever is first. Execution happens on a pool of deep network
// clones (core.ClonePool) whose layer workspaces stay warm, so a
// steady-state batch runs on the zero-alloc path. The source network
// is never mutated.
//
// # Determinism
//
// Defect-eval requests run core.EvalDefectSweep on a checked-out
// clone. Because the clone's weights are bit-identical to the source
// model and every Monte-Carlo run draws from the positional
// fault.RunRNG(seed, run), a served response is bit-identical to a
// direct engine call with the same parameters — at any client
// concurrency and any worker count. The conformance suite pins this.
//
// # Admission control and drain
//
// The infer queue is bounded (Config.QueueDepth) and defect-eval
// concurrency is capped (Config.EvalConcurrency); overload yields
// 429 + Retry-After instead of queue collapse. Cancelling the context
// passed to Serve (the CLI wires SIGTERM and SIGINT to it) stops
// admission with 503 "draining", flushes every queued request through
// the batcher, waits for in-flight work, and returns cleanly.
//
// Every request, executed batch, and drain emits a typed obs event
// (serve.request / serve.batch / serve.drain), so a JSONL sink doubles
// as access telemetry.
package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ftpim/ftpim/internal/core"
	"github.com/ftpim/ftpim/internal/data"
	"github.com/ftpim/ftpim/internal/nn"
	"github.com/ftpim/ftpim/internal/obs"
)

// Config tunes the service. The zero value of every field resolves to
// a documented default via Normalize.
type Config struct {
	// MaxBatch is the largest inference micro-batch (<=0 → 32). A
	// batch executes as soon as it is full, regardless of the window.
	MaxBatch int
	// BatchWindow is the latency budget measured from the first
	// request queued into an open batch (<=0 → 2ms). When it expires
	// the batch executes at whatever size it reached.
	BatchWindow time.Duration
	// QueueDepth bounds the infer admission queue (<=0 → 256). A full
	// queue answers 429 with Retry-After.
	QueueDepth int
	// Executors is the number of concurrent batch executors, each
	// owning one warm network clone (<=0 → 2).
	Executors int
	// EvalConcurrency caps concurrent defect-eval requests (<=0 → 2);
	// excess requests get 429 + Retry-After.
	EvalConcurrency int
	// MaxEvalRuns / MaxEvalRates cap the per-request Monte-Carlo cost
	// a client may ask for (<=0 → 64 runs, 16 rates); larger requests
	// are rejected with 400 rather than silently clamped.
	MaxEvalRuns  int
	MaxEvalRates int
	// RetryAfter is the Retry-After hint on 429 responses (<=0 → 1s).
	RetryAfter time.Duration
	// ReadHeaderTimeout bounds how long a connection may dribble its
	// request headers (<=0 → 5s) — the Slowloris guard.
	ReadHeaderTimeout time.Duration
	// ReadTimeout bounds reading one full request, headers and body
	// (<=0 → 30s).
	ReadTimeout time.Duration
	// IdleTimeout closes keep-alive connections with no request in
	// flight (<=0 → 2m). There is deliberately no WriteTimeout: a
	// defect-eval response legitimately takes as long as the eval the
	// client asked for, and slow writers are already bounded by the
	// kernel's send buffer plus IdleTimeout.
	IdleTimeout time.Duration
	// Quantized, when set, serves /v1/infer from this int8 network:
	// every executor gets a Clone (immutable weight planes shared, so
	// replicas add scratch memory only). The float model stays the
	// substrate for defect-eval and stability — fault injection mutates
	// weight planes, which the quantized path's planes (possibly
	// aliasing a read-only mmap) must never be. A nil float model is
	// allowed when Quantized is set; the Monte-Carlo endpoints then
	// answer 501 unsupported. New rejects a network that does not map
	// the dataset's images to its class count.
	Quantized *nn.QuantizedNetwork
	// ModelFormat names the weight source for /v1/healthz and version
	// reporting ("" → "ftck-cache"; the FTPM loader passes "ftpm-v1").
	ModelFormat string
	// Eval supplies the defaults for defect-eval and stability
	// requests: Workers, eval batch size, fault scenario, and the
	// seed/runs used when the request omits them. Normalized on New.
	Eval core.DefectEval
	// Sink receives serve.request/serve.batch/serve.drain events plus
	// the engine's own eval events (nil → obs.Null). When disabled the
	// serving hot path skips event construction entirely.
	Sink obs.Sink
}

// Normalize resolves zero-valued fields to their documented defaults.
func (c Config) Normalize() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.Executors <= 0 {
		c.Executors = 2
	}
	if c.EvalConcurrency <= 0 {
		c.EvalConcurrency = 2
	}
	if c.MaxEvalRuns <= 0 {
		c.MaxEvalRuns = 64
	}
	if c.MaxEvalRates <= 0 {
		c.MaxEvalRates = 16
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.ReadHeaderTimeout <= 0 {
		c.ReadHeaderTimeout = 5 * time.Second
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 30 * time.Second
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.ModelFormat == "" {
		c.ModelFormat = "ftck-cache"
	}
	c.Eval = c.Eval.Normalize()
	c.Sink = obs.Or(c.Sink)
	return c
}

// Server serves one trained model. Create with New, expose with
// Handler (or Serve for a managed listener), stop with Drain.
type Server struct {
	cfg     Config
	src     *nn.Network
	qsrc    *nn.QuantizedNetwork
	test    *data.Dataset
	c, h, w int
	classes int
	stride  int // floats per image
	params  int
	sink    obs.Sink

	pool  *core.ClonePool // shared clones: infer executors + defect-eval
	queue chan *inferReq
	execs chan *executor // idle executor stack (capacity cfg.Executors)
	evals chan struct{}  // defect-eval admission tokens

	// admission guards the draining flag against the enqueue in
	// handleInfer: Drain takes the write side after setting draining,
	// so once drainCh closes no further request can slip into queue
	// and every request that did is flushed by the batcher.
	admission sync.RWMutex
	draining  atomic.Bool
	drainOnce sync.Once
	drainCh   chan struct{} // closed to start the drain
	drained   chan struct{} // closed when the batcher has flushed

	batchSeq atomic.Int64
	accepted atomic.Int64 // infer requests admitted past the queue
	start    time.Time

	// accClean is the served model's fault-free accuracy, the pretrain
	// reference /v1/stability scores against, computed lazily on the
	// first stability request (on a pooled clone, full test set).
	accClean     float64
	accCleanOnce sync.Once
}

// cleanAcc returns the served model's fault-free accuracy on the
// evaluation dataset, computing it once on first use. The served model
// is its own stability reference: SS compares defect accuracy against
// the very weights being served.
func (s *Server) cleanAcc() float64 {
	s.accCleanOnce.Do(func() {
		e := s.pool.Get()
		defer s.pool.Put(e)
		s.accClean = core.EvalClean(e.Net, s.test, s.cfg.Eval.Batch)
	})
	return s.accClean
}

// New creates a Server for the given trained network and evaluation
// dataset (the split defect-eval requests measure accuracy on). The
// network is deep-cloned for every executor; the original is never
// mutated by the server. model may be nil when cfg.Quantized is set
// (pure quantized serving, e.g. from an mmap'd FTPM file); the
// Monte-Carlo endpoints then answer 501, since fault injection needs
// mutable float planes.
func New(model *nn.Network, test *data.Dataset, cfg Config) (*Server, error) {
	if model == nil && cfg.Quantized == nil {
		return nil, fmt.Errorf("serve: nil model")
	}
	if test == nil || test.N() == 0 {
		return nil, fmt.Errorf("serve: empty evaluation dataset")
	}
	cfg = cfg.Normalize()
	c, h, w := test.Dims()
	if cfg.Quantized != nil {
		// ftpm.Decode checks each layer on its own; whether the layers
		// chain from this dataset's images to its classes is checked
		// here, before an executor can run a batch through them.
		if err := cfg.Quantized.CheckShape(c, h, w, test.Classes); err != nil {
			return nil, fmt.Errorf("serve: quantized model does not fit the dataset: %w", err)
		}
	}
	params := 0
	if model != nil {
		params = model.NumParams()
	} else {
		params = cfg.Quantized.NumParams()
	}
	var pool *core.ClonePool
	if model != nil {
		pool = core.NewClonePool(model, cfg.Eval.Scenario)
	}
	s := &Server{
		cfg:     cfg,
		src:     model,
		qsrc:    cfg.Quantized,
		test:    test,
		c:       c,
		h:       h,
		w:       w,
		classes: test.Classes,
		stride:  c * h * w,
		params:  params,
		sink:    cfg.Sink,
		pool:    pool,
		queue:   make(chan *inferReq, cfg.QueueDepth),
		execs:   make(chan *executor, cfg.Executors),
		evals:   make(chan struct{}, cfg.EvalConcurrency),
		drainCh: make(chan struct{}),
		drained: make(chan struct{}),
		start:   time.Now(),
	}
	for i := 0; i < cfg.Executors; i++ {
		s.execs <- s.newExecutor()
	}
	go s.batcher()
	return s, nil
}

// Drain stops admission (new requests get 503), flushes every queued
// request through the batcher, and waits for in-flight batches to
// finish. It is idempotent and safe to call concurrently; every call
// blocks until the drain completes.
func (s *Server) Drain() {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		// Admission write lock: after this, no handler can be between
		// its draining check and its enqueue, so the queue can only
		// shrink once drainCh closes.
		s.admission.Lock()
		close(s.drainCh)
		s.admission.Unlock()
	})
	<-s.drained
}

// Draining reports whether the server has begun (or finished) its
// drain.
func (s *Server) Draining() bool { return s.draining.Load() }

// Serve accepts connections on l until ctx is cancelled, then drains:
// admission stops, queued batches flush, in-flight handlers complete,
// and the listener closes. A clean drain returns nil.
func (s *Server) Serve(ctx context.Context, l net.Listener) error {
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: s.cfg.ReadHeaderTimeout,
		ReadTimeout:       s.cfg.ReadTimeout,
		IdleTimeout:       s.cfg.IdleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Order matters: Drain first so handlers blocked on queued infer
	// requests are released, then Shutdown waits for them to write
	// their responses before closing the listener for good.
	s.Drain()
	shCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	return hs.Shutdown(shCtx)
}
