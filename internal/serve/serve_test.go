package serve

// HTTP contract tests for the serving layer: response shapes,
// validation failures, admission control, and drain semantics, all
// in-process through the handler.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ftpim/ftpim/internal/data"
	"github.com/ftpim/ftpim/internal/models"
	"github.com/ftpim/ftpim/internal/nn"
	"github.com/ftpim/ftpim/internal/tensor"
)

var bg = context.Background()

// fixture builds a small untrained CNN and a matching synthetic test
// split — serving semantics do not depend on model quality.
func fixture() (*nn.Network, *data.Dataset) {
	cfg := data.SynthConfig{
		Classes: 5, TrainPer: 4, TestPer: 8,
		Channels: 3, Size: 8, Basis: 10, CoefNoise: 0.1,
		NoiseStd: 0.3, Seed: 11,
	}
	_, test := data.Generate(cfg)
	net := models.BuildSimpleCNN(models.SimpleCNNConfig{InChannels: 3, Width: 4, Classes: 5, Seed: 2})
	return net, test
}

// newTestServer builds a server over the fixture and registers its
// drain as cleanup so the batcher goroutine never outlives the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *nn.Network, *data.Dataset) {
	t.Helper()
	net, test := fixture()
	s, err := New(net, test, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Drain)
	return s, net, test
}

func testImage(ds *data.Dataset) []float32 {
	c, h, w := ds.Dims()
	img := make([]float32, c*h*w)
	ds.Example(0, img)
	return img
}

func postJSON(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestInferMatchesDirectForward(t *testing.T) {
	s, net, test := newTestServer(t, Config{})
	img := testImage(test)
	body, _ := json.Marshal(InferRequest{Image: img})
	rec := postJSON(s.Handler(), "/v1/infer", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("infer: HTTP %d: %s", rec.Code, rec.Body)
	}
	var resp InferResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}

	// The served prediction must be bit-identical to a direct forward
	// pass on the source network: executors run deep clones of the
	// same weights through the same deterministic kernels.
	c, h, w := test.Dims()
	var x tensor.Tensor
	x.SetView(img, 1, c, h, w)
	out := net.Forward(&x, false)
	if want := out.ArgMaxRow(0); resp.Class != want {
		t.Fatalf("served class %d, direct forward says %d", resp.Class, want)
	}
	od := out.Data()
	if len(resp.Scores) != test.Classes {
		t.Fatalf("scores has %d entries, want %d", len(resp.Scores), test.Classes)
	}
	for i, v := range resp.Scores {
		if v != od[i] {
			t.Fatalf("scores[%d] = %v, direct forward says %v", i, v, od[i])
		}
	}
	if resp.Batch < 1 {
		t.Fatalf("batch = %d, want >= 1", resp.Batch)
	}
}

// TestConcurrentInfersCoalesce pins the micro-batching behavior: with
// a generous window, concurrent requests must be served by shared
// batches, and every response must match the direct forward pass for
// its own image (no cross-request mixups inside a batch). With more
// concurrent requests than the queue holds, the overflow must be
// refused with 429 + Retry-After, never dropped or answered wrongly,
// and the server must admit again once the burst has passed.
func TestConcurrentInfersCoalesce(t *testing.T) {
	for _, tc := range []struct {
		name    string
		clients int
		cfg     Config
	}{
		{"8 clients", 8, Config{MaxBatch: 8, BatchWindow: 50 * time.Millisecond}},
		{"64 clients queue 8", 64, Config{MaxBatch: 8, BatchWindow: 50 * time.Millisecond, QueueDepth: 8, Executors: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, net, test := newTestServer(t, tc.cfg)
			c, h, w := test.Dims()
			stride := c * h * w
			body := func(idx int) []byte {
				img := make([]float32, stride)
				test.Example(idx%test.N(), img)
				b, _ := json.Marshal(InferRequest{Image: img})
				return b
			}

			type result struct {
				idx int
				rec *httptest.ResponseRecorder
			}
			// Hold every executor until the burst has piled up behind the
			// first batch, so a queue too small for it must overflow.
			cfg := tc.cfg.Normalize()
			var held []*executor
			for len(held) < cfg.Executors {
				held = append(held, <-s.execs)
			}
			release := func() {
				for _, e := range held {
					s.execs <- e
				}
				held = nil
			}
			defer release() // a failed wait must not leave Drain hanging
			results := make(chan result, tc.clients)
			var answered atomic.Int64
			var wg sync.WaitGroup
			for i := 0; i < tc.clients; i++ {
				wg.Add(1)
				go func(idx int) {
					defer wg.Done()
					results <- result{idx, postJSON(s.Handler(), "/v1/infer", body(idx))}
					answered.Add(1)
				}(i)
			}
			overflow := tc.clients - cfg.MaxBatch - cfg.QueueDepth
			waitFor(t, func() bool { return answered.Load() >= int64(overflow) })
			release()
			wg.Wait()
			close(results)

			refusable := overflow > 0
			batched, refused := 0, 0
			for r := range results {
				idx, rec := r.idx, r.rec
				if rec.Code == http.StatusTooManyRequests && refusable {
					if rec.Header().Get("Retry-After") == "" {
						t.Fatalf("request %d: 429 without Retry-After", idx)
					}
					refused++
					continue
				}
				if rec.Code != http.StatusOK {
					t.Fatalf("request %d: HTTP %d: %s", idx, rec.Code, rec.Body)
				}
				var resp InferResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatalf("request %d: decode: %v", idx, err)
				}
				img := make([]float32, stride)
				test.Example(idx%test.N(), img)
				var x tensor.Tensor
				x.SetView(img, 1, c, h, w)
				out := net.Forward(&x, false)
				if want := out.ArgMaxRow(0); resp.Class != want {
					t.Fatalf("request %d: class %d, want %d", idx, resp.Class, want)
				}
				if resp.Batch > 1 {
					batched++
				}
			}
			if batched == 0 {
				t.Fatal("no request was served by a multi-request micro-batch; coalescing is not happening")
			}
			if refusable && refused == 0 {
				t.Fatalf("%d requests against a queue of %d: none refused", tc.clients, cfg.QueueDepth)
			}
			if rec := postJSON(s.Handler(), "/v1/infer", body(0)); rec.Code != http.StatusOK {
				t.Fatalf("request after the burst: HTTP %d: %s", rec.Code, rec.Body)
			}
		})
	}
}

func TestInferValidation(t *testing.T) {
	s, _, test := newTestServer(t, Config{})
	h := s.Handler()
	img := testImage(test)
	short, _ := json.Marshal(InferRequest{Image: img[:len(img)-1]})

	cases := []struct {
		name string
		body string
		code string
	}{
		{"empty body", ``, CodeBadRequest},
		{"not json", `lesion`, CodeBadRequest},
		{"nan literal", `{"image":[NaN]}`, CodeBadRequest},
		{"inf literal", `{"image":[Infinity]}`, CodeBadRequest},
		{"overflow number", `{"image":[1e999]}`, CodeBadRequest},
		{"wrong shape", string(short), CodeBadRequest},
		{"wrong type", `{"image":"abc"}`, CodeBadRequest},
		{"unknown field", `{"image":[],"shape":[3,8,8]}`, CodeBadRequest},
		{"trailing garbage", `{"image":[]}{"image":[]}`, CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := postJSON(h, "/v1/infer", []byte(tc.body))
			if rec.Code < 400 || rec.Code >= 500 {
				t.Fatalf("HTTP %d, want 4xx: %s", rec.Code, rec.Body)
			}
			var er ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
				t.Fatalf("error body is not the envelope: %v: %s", err, rec.Body)
			}
			if er.Error.Code != tc.code || er.Error.Message == "" {
				t.Fatalf("error = %+v, want code %q with a message", er.Error, tc.code)
			}
		})
	}

	// An oversized body gets its own code.
	huge := `{"image":[` + strings.Repeat("1,", maxBodyBytes/2) + `1]}`
	rec := postJSON(h, "/v1/infer", []byte(huge))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: HTTP %d, want 413", rec.Code)
	}
}

func TestDefectEvalValidation(t *testing.T) {
	s, _, _ := newTestServer(t, Config{MaxEvalRuns: 4, MaxEvalRates: 3})
	h := s.Handler()
	cases := []struct {
		name string
		body string
	}{
		{"no rates", `{}`},
		{"empty rates", `{"rates":[]}`},
		{"rate above one", `{"rates":[1.5]}`},
		{"negative rate", `{"rates":[-0.1]}`},
		{"too many rates", `{"rates":[0.1,0.2,0.3,0.4]}`},
		{"too many runs", `{"rates":[0.1],"runs":5}`},
		{"negative runs", `{"rates":[0.1],"runs":-1}`},
		{"negative batch", `{"rates":[0.1],"batch":-8}`},
		{"unknown field", `{"rates":[0.1],"workers":4}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := postJSON(h, "/v1/defect-eval", []byte(tc.body))
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("HTTP %d, want 400: %s", rec.Code, rec.Body)
			}
			var er ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error.Code == "" {
				t.Fatalf("missing error envelope: %s", rec.Body)
			}
		})
	}
}

func TestRoutingErrors(t *testing.T) {
	s, _, _ := newTestServer(t, Config{})
	h := s.Handler()

	rec := postJSON(h, "/v1/nope", []byte(`{}`))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown route: HTTP %d, want 404", rec.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/infer", nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET infer: HTTP %d, want 405", rr.Code)
	}
	if allow := rr.Header().Get("Allow"); allow != http.MethodPost {
		t.Fatalf("Allow = %q, want POST", allow)
	}
}

func TestHealthz(t *testing.T) {
	s, net, test := newTestServer(t, Config{})
	req := httptest.NewRequest(http.MethodGet, "/v1/healthz", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", rec.Code)
	}
	var h HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	c, hh, w := test.Dims()
	if h.Status != "ok" || h.Params != net.NumParams() || h.Classes != test.Classes ||
		h.Dims != [3]int{c, hh, w} {
		t.Fatalf("healthz = %+v", h)
	}
	// Pool status: default config, nothing in flight.
	if h.QueueCap != s.cfg.QueueDepth || h.Executors != s.cfg.Executors ||
		h.EvalCap != s.cfg.EvalConcurrency {
		t.Fatalf("healthz pool caps = %+v, config = %+v", h, s.cfg)
	}
	if h.IdleExecutors != s.cfg.Executors || h.EvalsInFlight != 0 || h.Accepted != 0 {
		t.Fatalf("healthz pool status = %+v on an idle server", h)
	}
	// CPU features mirror the tensor package's detection verbatim.
	if h.CPU != tensor.CPUFeatures() {
		t.Fatalf("healthz cpu = %q, want %q", h.CPU, tensor.CPUFeatures())
	}
}

// TestHealthzReportsBusyPool pins the worker-pool view: an occupied
// eval slot and a checked-out executor are visible in /v1/healthz.
func TestHealthzReportsBusyPool(t *testing.T) {
	s, _, _ := newTestServer(t, Config{Executors: 2, EvalConcurrency: 1})
	s.evals <- struct{}{} // one eval in flight
	e := <-s.execs        // one executor busy
	defer func() { s.execs <- e; <-s.evals }()

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	var h HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.EvalsInFlight != 1 || h.IdleExecutors != 1 || h.Executors != 2 {
		t.Fatalf("busy pool healthz = %+v, want 1 eval in flight, 1 of 2 executors idle", h)
	}
}

// TestServeTimeoutsConfigured pins the hardened listener defaults:
// zero-valued Config resolves to real read/header/idle timeouts so a
// socket-holding client cannot pin a connection forever.
func TestServeTimeoutsConfigured(t *testing.T) {
	cfg := Config{}.Normalize()
	if cfg.ReadHeaderTimeout <= 0 || cfg.ReadTimeout <= 0 || cfg.IdleTimeout <= 0 {
		t.Fatalf("normalized timeouts = %v/%v/%v, want all positive",
			cfg.ReadHeaderTimeout, cfg.ReadTimeout, cfg.IdleTimeout)
	}
	if cfg.ReadHeaderTimeout > cfg.ReadTimeout {
		t.Fatalf("header timeout %v exceeds read timeout %v", cfg.ReadHeaderTimeout, cfg.ReadTimeout)
	}
}

// TestQueueFullAnswers429 pins admission control deterministically:
// with every executor checked out by the test, a formed batch blocks
// in dispatch, the queue fills, and the next request must be rejected
// with 429 + Retry-After rather than waiting unboundedly.
func TestQueueFullAnswers429(t *testing.T) {
	s, _, test := newTestServer(t, Config{MaxBatch: 1, QueueDepth: 2, Executors: 1})
	h := s.Handler()
	body, _ := json.Marshal(InferRequest{Image: testImage(test)})

	exec := <-s.execs // dispatch now blocks; nothing can execute
	release := func() {
		if exec != nil {
			s.execs <- exec
			exec = nil
		}
	}
	defer release() // a failed wait must not leave Drain hanging

	codes := make(chan int, 3)
	post := func() {
		rec := postJSON(h, "/v1/infer", body)
		codes <- rec.Code
	}
	// First request: admitted, then pulled by the batcher into a batch
	// stuck in dispatch. Two more: fill the queue.
	go post()
	waitFor(t, func() bool { return s.accepted.Load() == 1 && len(s.queue) == 0 })
	go post()
	go post()
	waitFor(t, func() bool { return len(s.queue) == 2 })

	rec := postJSON(h, "/v1/infer", body)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("full queue: HTTP %d, want 429: %s", rec.Code, rec.Body)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error.Code != CodeOverloaded {
		t.Fatalf("429 body = %s", rec.Body)
	}

	release() // the three held requests must complete
	for i := 0; i < 3; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("held request finished with HTTP %d", code)
		}
	}
}

// TestEvalConcurrencyLimit pins the defect-eval admission cap using
// the semaphore directly (timing-free): with the only token taken, a
// request must bounce with 429.
func TestEvalConcurrencyLimit(t *testing.T) {
	s, _, _ := newTestServer(t, Config{EvalConcurrency: 1})
	s.evals <- struct{}{} // occupy the only slot
	rec := postJSON(s.Handler(), "/v1/defect-eval", []byte(`{"rates":[0.01],"runs":1}`))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("HTTP %d, want 429: %s", rec.Code, rec.Body)
	}
	<-s.evals
	rec = postJSON(s.Handler(), "/v1/defect-eval", []byte(`{"rates":[0.01],"runs":1}`))
	if rec.Code != http.StatusOK {
		t.Fatalf("after release: HTTP %d: %s", rec.Code, rec.Body)
	}
}

// TestDrainFlushesQueuedRequests covers the drain contract without
// signals: requests stuck behind a busy executor are flushed to
// completion, later requests get 503, and Drain is idempotent.
func TestDrainFlushesQueuedRequests(t *testing.T) {
	s, _, test := newTestServer(t, Config{MaxBatch: 2, QueueDepth: 16, Executors: 1, BatchWindow: time.Millisecond})
	h := s.Handler()
	body, _ := json.Marshal(InferRequest{Image: testImage(test)})

	exec := <-s.execs // stall execution so requests pile up
	release := func() {
		if exec != nil {
			s.execs <- exec
			exec = nil
		}
	}
	defer release() // a failed wait must not leave Drain hanging
	const n = 5
	codes := make(chan int, n)
	for i := 0; i < n; i++ {
		go func() {
			rec := postJSON(h, "/v1/infer", body)
			codes <- rec.Code
		}()
	}
	// With the single executor held, at most MaxBatch requests sit in
	// the batcher's stuck dispatch; the rest must be in the queue.
	waitFor(t, func() bool { return len(s.queue) >= n-s.cfg.MaxBatch })

	drained := make(chan struct{})
	go func() { s.Drain(); close(drained) }()
	waitFor(t, s.Draining)
	release() // let the flush proceed
	<-drained

	for i := 0; i < n; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("request during drain finished with HTTP %d, want 200", code)
		}
	}

	// Post-drain: everything is refused with the draining code.
	rec := postJSON(h, "/v1/infer", body)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain infer: HTTP %d, want 503", rec.Code)
	}
	rec = postJSON(h, "/v1/defect-eval", []byte(`{"rates":[0.01]}`))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain defect-eval: HTTP %d, want 503", rec.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/healthz", nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain healthz: HTTP %d, want 503", rr.Code)
	}
	s.Drain() // idempotent
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}

func TestNewRejectsBadInputs(t *testing.T) {
	net, test := fixture()
	if _, err := New(nil, test, Config{}); err == nil {
		t.Fatal("nil model accepted")
	}
	if _, err := New(net, nil, Config{}); err == nil {
		t.Fatal("nil dataset accepted")
	}
}
