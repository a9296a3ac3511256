package serve

// Contract tests for the quantized serving mode: /v1/infer runs the
// int8 path, /v1/healthz reports the model format, and the
// Monte-Carlo endpoints degrade explicitly when no float model is
// available.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/ftpim/ftpim/internal/data"
	"github.com/ftpim/ftpim/internal/nn"
	"github.com/ftpim/ftpim/internal/tensor"
)

// quantFixture quantizes the float fixture, calibrating on the test
// split's images (serving semantics don't depend on model quality).
func quantFixture(t *testing.T) (*nn.Network, *nn.QuantizedNetwork, *data.Dataset) {
	t.Helper()
	net, test := fixture()
	q, err := nn.QuantizeNetwork(net, []*tensor.Tensor{test.Images})
	if err != nil {
		t.Fatal(err)
	}
	return net, q, test
}

func healthOf(t *testing.T, s *Server) HealthResponse {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", rec.Code)
	}
	var h HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestQuantizedOnlyServing covers the pure-FTPM deployment shape: no
// float model at all. Infer serves from the int8 clone bit-identically
// to a direct quantized forward; healthz names the format; the
// Monte-Carlo endpoints answer 501 unsupported rather than panicking
// on the missing pool.
func TestQuantizedOnlyServing(t *testing.T) {
	_, q, test := quantFixture(t)
	s, err := New(nil, test, Config{Quantized: q, ModelFormat: "ftpm-v1"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Drain)

	img := testImage(test)
	body, _ := json.Marshal(InferRequest{Image: img})
	rec := postJSON(s.Handler(), "/v1/infer", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("infer: HTTP %d: %s", rec.Code, rec.Body)
	}
	var resp InferResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	var x tensor.Tensor
	c, h, w := test.Dims()
	x.SetView(img, 1, c, h, w)
	out := q.Forward(&x, false)
	if resp.Class != out.ArgMaxRow(0) {
		t.Fatalf("served class %d, direct quantized forward %d", resp.Class, out.ArgMaxRow(0))
	}
	for i, v := range resp.Scores {
		if v != out.Data()[i] {
			t.Fatalf("served score[%d] = %v, want bitwise %v", i, v, out.Data()[i])
		}
	}

	hr := healthOf(t, s)
	if hr.ModelFormat != "ftpm-v1" || !hr.Quantized {
		t.Fatalf("healthz model_format=%q quantized=%v, want ftpm-v1/true", hr.ModelFormat, hr.Quantized)
	}
	if hr.Params != q.NumParams() || hr.Params == 0 {
		t.Fatalf("healthz params=%d, want %d", hr.Params, q.NumParams())
	}

	evalBody, _ := json.Marshal(DefectEvalRequest{Rates: []float64{0.01}, Runs: 1})
	for _, path := range []string{"/v1/defect-eval", "/v1/stability"} {
		rec := postJSON(s.Handler(), path, evalBody)
		if rec.Code != http.StatusNotImplemented {
			t.Fatalf("%s on quantized-only server: HTTP %d, want 501", path, rec.Code)
		}
		var er ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error.Code != CodeUnsupported {
			t.Fatalf("%s error envelope = %s", path, rec.Body)
		}
	}
}

// TestQuantizedHybridServing covers the float+quantized pairing: the
// int8 network serves infer while the float model keeps the
// Monte-Carlo endpoints alive.
func TestQuantizedHybridServing(t *testing.T) {
	net, q, test := quantFixture(t)
	s, err := New(net, test, Config{Quantized: q, ModelFormat: "ftpm-v1", MaxEvalRuns: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Drain)

	img := testImage(test)
	body, _ := json.Marshal(InferRequest{Image: img})
	rec := postJSON(s.Handler(), "/v1/infer", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("infer: HTTP %d: %s", rec.Code, rec.Body)
	}
	var resp InferResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	var x tensor.Tensor
	c, h, w := test.Dims()
	x.SetView(img, 1, c, h, w)
	if want := q.Forward(&x, false).ArgMaxRow(0); resp.Class != want {
		t.Fatalf("hybrid infer class %d, want quantized path's %d", resp.Class, want)
	}

	evalBody, _ := json.Marshal(DefectEvalRequest{Rates: []float64{0.01}, Runs: 1})
	rec = postJSON(s.Handler(), "/v1/defect-eval", evalBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("hybrid defect-eval: HTTP %d: %s", rec.Code, rec.Body)
	}
	if hr := healthOf(t, s); !hr.Quantized || hr.ModelFormat != "ftpm-v1" {
		t.Fatalf("hybrid healthz = %+v", hr)
	}
}

// TestDefaultModelFormat: the float path reports the model cache as
// its weight source.
func TestDefaultModelFormat(t *testing.T) {
	s, _, _ := newTestServer(t, Config{})
	if hr := healthOf(t, s); hr.ModelFormat != "ftck-cache" || hr.Quantized {
		t.Fatalf("float healthz model_format=%q quantized=%v, want ftck-cache/false", hr.ModelFormat, hr.Quantized)
	}
}

// TestNewRejectsNoModelAtAll: nil float and nil quantized is a
// configuration error.
func TestNewRejectsNoModelAtAll(t *testing.T) {
	_, test := fixture()
	if _, err := New(nil, test, Config{}); err == nil {
		t.Fatal("New(nil, test, {}) must fail")
	}
}
