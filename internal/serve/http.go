package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"github.com/ftpim/ftpim/internal/core"
	"github.com/ftpim/ftpim/internal/fault"
	"github.com/ftpim/ftpim/internal/metrics"
	"github.com/ftpim/ftpim/internal/obs"
	"github.com/ftpim/ftpim/internal/tensor"
)

// maxBodyBytes bounds request bodies; a CIFAR-scale image encodes in
// well under 100 KiB of JSON, so 1 MiB leaves generous headroom while
// keeping hostile payloads cheap to reject.
const maxBodyBytes = 1 << 20

// InferRequest is the body of POST /v1/infer: one image as a flat
// C·H·W float array in the model's normalized input space.
type InferRequest struct {
	Image []float32 `json:"image"`
}

// InferResponse is the body of a successful /v1/infer call. Batch
// reports how many concurrent requests were coalesced into the
// micro-batch that served this one — useful for load-test assertions
// and capacity tuning, irrelevant to the prediction itself.
type InferResponse struct {
	Class  int       `json:"class"`
	Scores []float32 `json:"scores"`
	Batch  int       `json:"batch"`
}

// DefectEvalRequest is the body of POST /v1/defect-eval: a
// Monte-Carlo stability evaluation over the given stuck-at rates.
// Omitted fields inherit the server's configured defaults; in
// particular an omitted scenario uses the server's configured fault
// scenario ("chen" unless overridden), so pre-scenario request bodies
// behave byte-identically.
type DefectEvalRequest struct {
	Rates []float64 `json:"rates"`
	Runs  int       `json:"runs,omitempty"`
	Seed  *uint64   `json:"seed,omitempty"`
	Batch int       `json:"batch,omitempty"`
	// Scenario is a fault-scenario spec string resolved by
	// fault.Parse, e.g. "chen:r0=1,r1=1", "transient", "cluster:len=8",
	// "drop".
	Scenario string `json:"scenario,omitempty"`
}

// RateResult is one rate's Monte-Carlo summary, mirroring
// metrics.Summary field for field.
type RateResult struct {
	Rate float64 `json:"rate"`
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	P50  float64 `json:"p50"`
}

// DefectEvalResponse is the body of a successful /v1/defect-eval
// call. It echoes the effective seed and runs so a client can
// reproduce the result offline with a direct engine call. Scenario is
// the canonical spec of the scenario the request selected; it is
// omitted when the request didn't set one, keeping legacy responses
// byte-identical.
type DefectEvalResponse struct {
	Seed     uint64       `json:"seed"`
	Runs     int          `json:"runs"`
	Scenario string       `json:"scenario,omitempty"`
	Results  []RateResult `json:"results"`
}

// NewDefectEvalResponse assembles the wire response for one sweep.
// Exported (package-internally shared with the conformance suite) so
// the byte-identity test serializes direct engine results through the
// exact code path the handler uses.
func NewDefectEvalResponse(seed uint64, runs int, rates []float64, sums []metrics.Summary) DefectEvalResponse {
	resp := DefectEvalResponse{Seed: seed, Runs: runs, Results: make([]RateResult, len(sums))}
	for i, s := range sums {
		resp.Results[i] = RateResult{
			Rate: rates[i], N: s.N, Mean: s.Mean, Std: s.Std,
			Min: s.Min, Max: s.Max, P50: s.P50,
		}
	}
	return resp
}

// StabilityRequest is the body of POST /v1/stability: the paper's
// Stability Score protocol (Eq. 1) over the given stuck-at rates.
// Field semantics match DefectEvalRequest; omitted fields inherit the
// server's configured defaults.
type StabilityRequest struct {
	Rates    []float64 `json:"rates"`
	Runs     int       `json:"runs,omitempty"`
	Seed     *uint64   `json:"seed,omitempty"`
	Batch    int       `json:"batch,omitempty"`
	Scenario string    `json:"scenario,omitempty"`
}

// StabilityRateResult is one rate's defect accuracy and Stability
// Score. SS is null when the score is +Inf — the defect accuracy
// matched or exceeded the reference accuracy, i.e. zero degradation —
// since JSON cannot encode infinities.
type StabilityRateResult struct {
	Rate      float64  `json:"rate"`
	AccDefect float64  `json:"acc_defect"`
	SS        *float64 `json:"ss"`
}

// StabilityResponse is the body of a successful /v1/stability call.
// AccPretrain is the served model's fault-free accuracy (the server
// hosts one model, so the deployed weights are their own pretrain
// reference); AccRetrain is the clean accuracy of the same weights —
// identical here, but kept as two fields to mirror
// core.StabilityReport and stay forward-compatible with serving
// FT-model/base-model pairs.
type StabilityResponse struct {
	Seed        uint64                `json:"seed"`
	Runs        int                   `json:"runs"`
	AccPretrain float64               `json:"acc_pretrain"`
	AccRetrain  float64               `json:"acc_retrain"`
	Scenario    string                `json:"scenario,omitempty"`
	Results     []StabilityRateResult `json:"results"`
}

// NewStabilityResponse assembles the wire response for one stability
// report. Exported for the same reason as NewDefectEvalResponse: the
// conformance suite serializes direct engine results through the exact
// code path the handler uses.
func NewStabilityResponse(seed uint64, runs int, rep core.StabilityReport) StabilityResponse {
	resp := StabilityResponse{
		Seed: seed, Runs: runs,
		AccPretrain: rep.AccPretrain, AccRetrain: rep.AccRetrain,
		Results: make([]StabilityRateResult, len(rep.Rates)),
	}
	for i := range rep.Rates {
		rr := StabilityRateResult{Rate: rep.Rates[i], AccDefect: rep.AccDefect[i]}
		if ss := rep.SS[i]; !math.IsInf(ss, 1) {
			v := ss
			rr.SS = &v
		}
		resp.Results[i] = rr
	}
	return resp
}

// HealthResponse is the body of GET /v1/healthz.
type HealthResponse struct {
	Status   string  `json:"status"` // "ok" or "draining"
	Params   int     `json:"params"`
	Classes  int     `json:"classes"`
	Dims     [3]int  `json:"dims"` // C, H, W
	Queue    int     `json:"queue"`
	QueueCap int     `json:"queue_cap"`
	MaxBatch int     `json:"max_batch"`
	UptimeS  float64 `json:"uptime_s"`
	// Worker-pool status: configured executors, how many sit idle
	// right now, how many defect-eval requests are in flight against
	// the eval concurrency cap, and the lifetime count of admitted
	// infer requests.
	Executors     int   `json:"executors"`
	IdleExecutors int   `json:"idle_executors"`
	EvalsInFlight int   `json:"evals_in_flight"`
	EvalCap       int   `json:"eval_cap"`
	Accepted      int64 `json:"accepted"`
	// CPU lists the vector features the kernels use (tensor.CPUFeatures:
	// "avx,avx2" on an AVX2 host, empty without AVX or in a noasm
	// build). They change speed, never bits.
	CPU string `json:"cpu_features,omitempty"`
	// ModelFormat names the weight source ("ftck-cache" or "ftpm-v1")
	// and Quantized whether /v1/infer runs the int8 path. The int8
	// path is bit-deterministic at every worker count.
	ModelFormat string `json:"model_format"`
	Quantized   bool   `json:"quantized"`
}

// ErrorResponse is the envelope every non-2xx response carries.
type ErrorResponse struct {
	Error ErrorBody `json:"error"`
}

// ErrorBody identifies a failure with a stable machine-readable code
// and a human-readable message.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error codes used by the API.
const (
	CodeBadRequest       = "bad_request"
	CodeTooLarge         = "too_large"
	CodeNotFound         = "not_found"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeOverloaded       = "overloaded"
	CodeDraining         = "draining"
	CodeCanceled         = "canceled"
	CodeUnsupported      = "unsupported"
)

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/infer":
			s.route(w, r, "infer", http.MethodPost, s.handleInfer)
		case "/v1/defect-eval":
			s.route(w, r, "defect-eval", http.MethodPost, s.handleDefectEval)
		case "/v1/stability":
			s.route(w, r, "stability", http.MethodPost, s.handleStability)
		case "/v1/healthz":
			s.route(w, r, "healthz", http.MethodGet, s.handleHealthz)
		default:
			s.route(w, r, "unknown", r.Method, func(w http.ResponseWriter, r *http.Request) int {
				return s.writeError(w, http.StatusNotFound, CodeNotFound,
					fmt.Sprintf("no route %s", r.URL.Path))
			})
		}
	})
}

// route enforces the method, runs the handler, and emits one
// serve.request event carrying the route name, final status, and
// latency. Handlers return the status they wrote.
func (s *Server) route(w http.ResponseWriter, r *http.Request, name, method string, h func(http.ResponseWriter, *http.Request) int) {
	start := time.Now()
	var status int
	if r.Method != method {
		w.Header().Set("Allow", method)
		status = s.writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
			fmt.Sprintf("%s requires %s", r.URL.Path, method))
	} else {
		status = h(w, r)
	}
	if s.sink.Enabled() {
		s.sink.Emit(obs.Event{
			Kind:    obs.KindServeRequest,
			Phase:   name,
			N:       status,
			Seconds: time.Since(start).Seconds(),
		})
	}
}

// writeJSON writes a 200 response. Marshalling a response struct
// cannot fail; write errors mean the client went away and are
// ignored, as an access log (the serve.request event) still records
// the outcome.
func (s *Server) writeJSON(w http.ResponseWriter, v any) int {
	b, err := json.Marshal(v)
	if err != nil {
		return s.writeError(w, http.StatusInternalServerError, "internal", err.Error())
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(append(b, '\n'))
	return http.StatusOK
}

func (s *Server) writeError(w http.ResponseWriter, status int, code, msg string) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	b, _ := json.Marshal(ErrorResponse{Error: ErrorBody{Code: code, Message: msg}})
	w.Write(append(b, '\n'))
	return status
}

// decodeJSON decodes a request body strictly: unknown fields,
// trailing garbage, oversized bodies, and syntactically invalid JSON
// (including NaN/Inf literals and out-of-range numbers, which
// encoding/json already rejects) all yield a 4xx error code.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) (code string, status int, err error) {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return CodeTooLarge, http.StatusRequestEntityTooLarge,
				fmt.Errorf("body exceeds %d bytes", maxBodyBytes)
		}
		return CodeBadRequest, http.StatusBadRequest, fmt.Errorf("invalid JSON: %v", err)
	}
	// A second document after the first is a malformed request, not a
	// stream.
	if dec.More() {
		return CodeBadRequest, http.StatusBadRequest, errors.New("trailing data after JSON body")
	}
	return "", 0, nil
}

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) int {
	var req InferRequest
	if code, status, err := decodeJSON(w, r, &req); err != nil {
		return s.writeError(w, status, code, err.Error())
	}
	if len(req.Image) != s.stride {
		return s.writeError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("image has %d values, model expects %d (%d×%d×%d)",
				len(req.Image), s.stride, s.c, s.h, s.w))
	}
	// encoding/json cannot produce NaN/Inf from valid input, but the
	// engine must never see them even if the decoder changes.
	for i, v := range req.Image {
		if f := float64(v); math.IsNaN(f) || math.IsInf(f, 0) {
			return s.writeError(w, http.StatusBadRequest, CodeBadRequest,
				fmt.Sprintf("image[%d] is not finite", i))
		}
	}
	ir := &inferReq{
		img:    req.Image,
		scores: make([]float32, s.classes),
		enq:    time.Now(),
		done:   make(chan struct{}),
	}
	// The admission read lock pairs with Drain's write lock: a request
	// that passes the draining check here is guaranteed to land in the
	// queue before drainCh closes, so the batcher will flush it.
	s.admission.RLock()
	if s.draining.Load() {
		s.admission.RUnlock()
		return s.writeError(w, http.StatusServiceUnavailable, CodeDraining, "server is draining")
	}
	select {
	case s.queue <- ir:
		s.accepted.Add(1)
		s.admission.RUnlock()
	default:
		s.admission.RUnlock()
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
		return s.writeError(w, http.StatusTooManyRequests, CodeOverloaded,
			fmt.Sprintf("infer queue full (%d requests)", s.cfg.QueueDepth))
	}
	<-ir.done
	return s.writeJSON(w, InferResponse{Class: ir.class, Scores: ir.scores, Batch: ir.batch})
}

// evalRequestParams is the Monte-Carlo request surface shared by
// /v1/defect-eval and /v1/stability (both request structs convert to
// it field for field).
type evalRequestParams struct {
	Rates    []float64
	Runs     int
	Seed     *uint64
	Batch    int
	Scenario string
}

// validateEval checks the shared Monte-Carlo request fields and
// resolves them over the server's configured defaults, returning the
// effective eval config and the canonical scenario spec ("" when the
// request omitted one). A non-zero status means the error response
// was already written. Validation order (rates presence → rate count
// → rate range → runs → batch → scenario) is pinned by the error
// tests.
func (s *Server) validateEval(w http.ResponseWriter, p evalRequestParams) (core.DefectEval, string, int) {
	var zero core.DefectEval
	if len(p.Rates) == 0 {
		return zero, "", s.writeError(w, http.StatusBadRequest, CodeBadRequest, "rates must be non-empty")
	}
	if len(p.Rates) > s.cfg.MaxEvalRates {
		return zero, "", s.writeError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("%d rates exceeds the limit of %d", len(p.Rates), s.cfg.MaxEvalRates))
	}
	for i, rate := range p.Rates {
		if math.IsNaN(rate) || rate < 0 || rate > 1 {
			return zero, "", s.writeError(w, http.StatusBadRequest, CodeBadRequest,
				fmt.Sprintf("rates[%d] = %v is outside [0, 1]", i, rate))
		}
	}
	if p.Runs < 0 || p.Runs > s.cfg.MaxEvalRuns {
		return zero, "", s.writeError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("runs = %d is outside [0, %d]", p.Runs, s.cfg.MaxEvalRuns))
	}
	if p.Batch < 0 {
		return zero, "", s.writeError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("batch = %d is negative", p.Batch))
	}
	cfg := s.cfg.Eval
	spec := ""
	if p.Scenario != "" {
		sc, err := fault.Parse(p.Scenario)
		if err != nil {
			return zero, "", s.writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		}
		cfg.Scenario = sc
		spec = sc.Spec()
	}
	if p.Runs > 0 {
		cfg.Runs = p.Runs
	}
	if p.Seed != nil {
		cfg.Seed = *p.Seed
	}
	if p.Batch > 0 {
		cfg.Batch = p.Batch
	}
	return cfg, spec, 0
}

// acquireEval performs the draining check and takes one defect-eval
// admission token (the semaphore is shared by /v1/defect-eval and
// /v1/stability, so the combined concurrency stays capped). A non-zero
// status means the request was rejected and the response written;
// otherwise the caller must invoke the returned release func.
func (s *Server) acquireEval(w http.ResponseWriter) (func(), int) {
	if s.pool == nil {
		// Quantized-only instance: fault injection mutates float weight
		// planes, which this server doesn't have (its int8 planes may
		// alias a read-only mmap).
		return nil, s.writeError(w, http.StatusNotImplemented, CodeUnsupported,
			"defect evaluation requires the float model; this instance serves a quantized model only")
	}
	if s.draining.Load() {
		return nil, s.writeError(w, http.StatusServiceUnavailable, CodeDraining, "server is draining")
	}
	select {
	case s.evals <- struct{}{}:
		return func() { <-s.evals }, 0
	default:
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
		return nil, s.writeError(w, http.StatusTooManyRequests, CodeOverloaded,
			fmt.Sprintf("at defect-eval concurrency limit (%d)", s.cfg.EvalConcurrency))
	}
}

func (s *Server) handleDefectEval(w http.ResponseWriter, r *http.Request) int {
	var req DefectEvalRequest
	if code, status, err := decodeJSON(w, r, &req); err != nil {
		return s.writeError(w, status, code, err.Error())
	}
	cfg, spec, status := s.validateEval(w, evalRequestParams(req))
	if status != 0 {
		return status
	}
	release, status := s.acquireEval(w)
	if status != 0 {
		return status
	}
	defer release()
	// A checked-out clone is bit-identical to the source model and the
	// sweep's Monte-Carlo draws depend only on (seed, run), so this
	// response matches a direct core.EvalDefectSweep call byte for
	// byte regardless of which clone served it or what else the server
	// is doing. The lesions are undone before the clone is pooled.
	e := s.pool.Get()
	defer s.pool.Put(e)
	sums, err := core.EvalDefectSweep(r.Context(), e.Net, s.test, req.Rates, cfg)
	if err != nil {
		// Only a cancelled request context reaches here: the client
		// went away (or the listener is shutting down with a deadline).
		return s.writeError(w, http.StatusServiceUnavailable, CodeCanceled, err.Error())
	}
	resp := NewDefectEvalResponse(cfg.Seed, cfg.Runs, req.Rates, sums)
	resp.Scenario = spec
	return s.writeJSON(w, resp)
}

func (s *Server) handleStability(w http.ResponseWriter, r *http.Request) int {
	var req StabilityRequest
	if code, status, err := decodeJSON(w, r, &req); err != nil {
		return s.writeError(w, status, code, err.Error())
	}
	cfg, spec, status := s.validateEval(w, evalRequestParams(req))
	if status != 0 {
		return status
	}
	release, status := s.acquireEval(w)
	if status != 0 {
		return status
	}
	defer release()
	e := s.pool.Get()
	defer s.pool.Put(e)
	rep, err := core.Stability(r.Context(), e.Net, s.test, s.cleanAcc(), req.Rates, cfg)
	if err != nil {
		return s.writeError(w, http.StatusServiceUnavailable, CodeCanceled, err.Error())
	}
	resp := NewStabilityResponse(cfg.Seed, cfg.Runs, rep)
	resp.Scenario = spec
	return s.writeJSON(w, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) int {
	h := HealthResponse{
		Status:        "ok",
		Params:        s.params,
		Classes:       s.classes,
		Dims:          [3]int{s.c, s.h, s.w},
		Queue:         len(s.queue),
		QueueCap:      cap(s.queue),
		MaxBatch:      s.cfg.MaxBatch,
		UptimeS:       time.Since(s.start).Seconds(),
		Executors:     s.cfg.Executors,
		IdleExecutors: len(s.execs),
		EvalsInFlight: len(s.evals),
		EvalCap:       s.cfg.EvalConcurrency,
		Accepted:      s.accepted.Load(),
		CPU:           tensor.CPUFeatures(),
		ModelFormat:   s.cfg.ModelFormat,
		Quantized:     s.qsrc != nil,
	}
	if s.draining.Load() {
		h.Status = "draining"
		// Report draining with 503 so load balancers stop routing
		// here, while the body still describes the instance.
		b, _ := json.Marshal(h)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write(append(b, '\n'))
		return http.StatusServiceUnavailable
	}
	return s.writeJSON(w, h)
}

func retryAfterSeconds(d time.Duration) string {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}
