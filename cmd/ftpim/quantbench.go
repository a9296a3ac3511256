package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/ftpim/ftpim/internal/experiments"
	"github.com/ftpim/ftpim/internal/ftpm"
	"github.com/ftpim/ftpim/internal/serve"
)

// quantBenchOpts carries the quantbench flag values from run().
type quantBenchOpts struct {
	preset   string // for the fresh cold-start environments
	cache    string
	out      string // JSON record path ("" -> results/BENCH_quant.json)
	calibN   int
	clients  int
	requests int
}

// QuantBenchRecord is the persisted result of one quantbench run:
// accuracy parity, cold-start latency (float model cache vs mmap'd
// FTPM), and serving throughput for the float32 and int8 paths.
type QuantBenchRecord struct {
	Schema  string `json:"schema"` // "ftpim.bench.quant/v2"
	Created string `json:"created"`
	Preset  string `json:"preset"`
	Dataset string `json:"dataset"`
	Model   string `json:"model"`

	// Top-1 test accuracy; DeltaPP = (int8 - float32) in percentage
	// points. The acceptance bar is |DeltaPP| < 1.
	FloatAcc float64 `json:"float_acc"`
	QuantAcc float64 `json:"quant_acc"`
	DeltaPP  float64 `json:"delta_pp"`

	// Cold start: median milliseconds to a ready model. FloatMs
	// rebuilds the float network and decodes the warm .cache entry
	// (dataset generation excluded — both paths need the dataset
	// equally); FTPMMs mmaps the exported file. Speedup = FloatMs /
	// FTPMMs.
	FloatMs float64 `json:"cold_start_float_ms"`
	FTPMMs  float64 `json:"cold_start_ftpm_ms"`
	Speedup float64 `json:"cold_start_speedup"`

	// In-process load test, identical client/request shape both ways.
	FloatRPS        float64          `json:"float_rps"`
	QuantRPS        float64          `json:"quant_rps"`
	ThroughputRatio float64          `json:"throughput_ratio"` // int8 / float32
	FloatLoad       serve.LoadResult `json:"float_load"`
	QuantLoad       serve.LoadResult `json:"quant_load"`
}

// runQuantBench implements 'ftpim quantbench': quantize the pretrained
// model, export it, and measure the three claims the int8 path makes —
// accuracy parity, faster cold start, higher serving throughput.
func runQuantBench(ctx context.Context, env *experiments.Env, dataset string, o quantBenchOpts) error {
	if dataset == "both" {
		dataset = "c10"
	}
	if o.out == "" {
		o.out = filepath.Join("results", "BENCH_quant.json")
	}

	net, q, meta, err := quantizeFromEnv(ctx, env, dataset, o.calibN)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ftpim: quantbench %s/%s: float %.2f%% int8 %.2f%%\n",
		env.Scale.Name, dataset, meta.FloatAcc*100, meta.QuantAcc*100)

	tmp, err := os.MkdirTemp("", "ftpim-quantbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	modelPath := filepath.Join(tmp, "model.ftpm")
	if err := ftpm.Save(modelPath, q, meta); err != nil {
		return err
	}

	// Cold start, float side: a fresh Env per trial so the in-memory
	// model map is cold, dataset pre-generated so only build+decode is
	// timed. quantizeFromEnv above guaranteed the disk cache is warm.
	const trials = 5
	floatMs := make([]float64, 0, trials)
	for i := 0; i < trials; i++ {
		cold := experiments.NewEnv(o.preset, o.cache, nil)
		cold.Scale.Workers = env.Scale.Workers
		cold.Dataset(dataset)
		start := time.Now()
		if _, err := cold.Pretrained(ctx, dataset); err != nil {
			return fmt.Errorf("cold float load: %v", err)
		}
		floatMs = append(floatMs, float64(time.Since(start).Nanoseconds())/1e6)
	}

	ftpmMs := make([]float64, 0, trials)
	for i := 0; i < trials; i++ {
		start := time.Now()
		m, err := ftpm.Load(modelPath)
		if err != nil {
			return fmt.Errorf("cold ftpm load: %v", err)
		}
		ftpmMs = append(ftpmMs, float64(time.Since(start).Nanoseconds())/1e6)
		m.Close()
	}

	// Load tests: same dataset, same client/request shape; only the
	// executor lane differs (float clone pool vs int8 clones).
	_, test := env.Dataset(dataset)
	img := make([]float32, func() int { c, h, w := test.Dims(); return c * h * w }())
	test.Example(0, img)
	lt := serve.LoadOptions{Clients: o.clients, Requests: o.requests, Image: img}

	runLoad := func(cfg serve.Config, fnet bool) (serve.LoadResult, error) {
		var s *serve.Server
		var err error
		if fnet {
			s, err = serve.New(net, test, cfg)
		} else {
			s, err = serve.New(nil, test, cfg)
		}
		if err != nil {
			return serve.LoadResult{}, err
		}
		res, lerr := serve.Load(s.Handler(), lt)
		s.Drain()
		return res, lerr
	}
	floatRes, err := runLoad(serve.Config{Eval: env.DefectEval(), Sink: env.Sink}, true)
	if err != nil {
		return fmt.Errorf("float load test: %v", err)
	}
	quantRes, err := runLoad(serve.Config{Quantized: q, ModelFormat: ftpm.FormatName, Sink: env.Sink}, false)
	if err != nil {
		return fmt.Errorf("quantized load test: %v", err)
	}

	rec := QuantBenchRecord{
		Schema:    "ftpim.bench.quant/v2",
		Created:   time.Now().UTC().Format(time.RFC3339),
		Preset:    env.Scale.Name,
		Dataset:   dataset,
		Model:     meta.Model,
		FloatAcc:  meta.FloatAcc,
		QuantAcc:  meta.QuantAcc,
		DeltaPP:   (meta.QuantAcc - meta.FloatAcc) * 100,
		FloatMs:   median(floatMs),
		FTPMMs:    median(ftpmMs),
		FloatRPS:  floatRes.Throughput,
		QuantRPS:  quantRes.Throughput,
		FloatLoad: floatRes,
		QuantLoad: quantRes,
	}
	if rec.FTPMMs > 0 {
		rec.Speedup = rec.FloatMs / rec.FTPMMs
	}
	if rec.FloatRPS > 0 {
		rec.ThroughputRatio = rec.QuantRPS / rec.FloatRPS
	}

	if err := os.MkdirAll(filepath.Dir(o.out), 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(o.out, append(buf, '\n'), 0o644); err != nil {
		return err
	}

	fmt.Printf("accuracy: float32 %.2f%%  int8 %.2f%%  delta %+.2fpp\n",
		rec.FloatAcc*100, rec.QuantAcc*100, rec.DeltaPP)
	fmt.Printf("cold start: float %.2fms  ftpm %.3fms  speedup %.0fx\n",
		rec.FloatMs, rec.FTPMMs, rec.Speedup)
	fmt.Printf("throughput: float32 %.1f req/s  int8 %.1f req/s  ratio %.2fx\n",
		rec.FloatRPS, rec.QuantRPS, rec.ThroughputRatio)
	fmt.Printf("wrote %s\n", o.out)
	return nil
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s[len(s)/2]
}
