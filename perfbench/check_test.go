package main

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/ftpim/ftpim/internal/data"
	"github.com/ftpim/ftpim/internal/models"
	"github.com/ftpim/ftpim/internal/serve"
)

// testServer serves an untrained ResNet-8 on a tiny synthetic dataset,
// with wrap applied to its handler.
func testServer(t *testing.T, wrap func(http.Handler) http.Handler) *server {
	t.Helper()
	_, test := data.Generate(data.SynthConfig{
		Classes: 4, TrainPer: 2, TestPer: 8, Channels: 3, Size: 8,
		Basis: 6, CoefNoise: 0.1, NoiseStd: 0.3, ShiftMax: 1, JitterStd: 0.1, Seed: 5,
	})
	net := models.BuildResNet(models.ResNetConfig{Depth: 8, Classes: 4, InChannels: 3, WidthMult: 0.25, Seed: 3})
	srv, err := serve.New(net, test, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Drain)
	return &server{h: wrap(srv.Handler()), test: test, verify: net.Clone()}
}

// corruptScores flips the lowest bit of the first score of every
// successful infer response.
func corruptScores(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		var resp serve.InferResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
			w.WriteHeader(rec.Code)
			io.Copy(w, rec.Body)
			return
		}
		resp.Scores[0] = math.Float32frombits(math.Float32bits(resp.Scores[0]) ^ 1)
		b, _ := json.Marshal(resp)
		w.WriteHeader(http.StatusOK)
		w.Write(b)
	})
}

func servePhase(t *testing.T, wrap func(http.Handler) http.Handler) (phaseStats, result) {
	s := testServer(t, wrap)
	rep := &report{out: io.Discard}
	rc := &runCtx{opt: options{seed: 9}, rep: rep}
	pl := &pooled{name: "light", rate: 200}
	pl.add(s.openPhase(rc, nil, "light", 0, 200, 300*time.Millisecond, 1))
	st := pl.stats()
	account(rep, st)
	return st, rep.result(nil)
}

// Served scores match the in-process forward pass bit for bit, whatever
// micro-batch each request ran in.
func TestServedScoresVerify(t *testing.T) {
	st, res := servePhase(t, func(h http.Handler) http.Handler { return h })
	if st.Sent == 0 || st.OK != st.Sent || !res.Correct || exitCode(res) != 0 {
		t.Fatalf("clean phase: %+v, result %+v", st, res)
	}
}

// A single corrupted score bit makes the run incorrect and the command
// exit non-zero.
func TestCorruptedScoreFailsRun(t *testing.T) {
	st, res := servePhase(t, corruptScores)
	if st.Wrong != st.Sent || st.Sent == 0 {
		t.Fatalf("%d of %d corrupted responses detected", st.Wrong, st.Sent)
	}
	if res.Correct || res.Failed != st.Sent || exitCode(res) == 0 {
		t.Fatalf("corrupted run reported %+v, exit %d", res, exitCode(res))
	}
}
