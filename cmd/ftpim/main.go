// Command ftpim regenerates the paper's tables and figures and runs
// the ablation studies.
//
// Usage:
//
//	ftpim table1 [-preset repro] [-dataset c10|c100|both] [-cache DIR] [-csv]
//	ftpim table2 [-preset repro] [-cache DIR]
//	ftpim fig2   [-preset repro] [-dataset c10|c100|both] [-cache DIR] [-csv]
//	ftpim ablation [-preset repro] [-which ladder|resample|crossbar] [-cache DIR]
//	ftpim scenarios [-preset repro] [-dataset c10] [-csv] [SPEC ...]
//	ftpim device draw|eval|retrain [-psa RATE] [-profile FILE] [-dataset c10]
//	ftpim all    [-preset repro] [-cache DIR] [-out DIR]
//	ftpim serve  [-addr HOST:PORT] [-max-batch N] [-batch-window D] [-queue N]
//	             [-executors N] [-model FILE.ftpm]
//	ftpim export [-preset repro] [-dataset c10] [-o FILE.ftpm] [-calib N]
//	ftpim coordinator [-addr HOST:PORT] [-dist-lease N] [-dist-lease-ttl D]
//	             [-dist-fallback-after D] [-runs N] [-checkpoint DIR [-resume]]
//	ftpim worker -connect HOST:PORT [-worker-id ID] [-dist-slow-ms N]
//	ftpim version
//
// The default preset ("repro") is the scaled-down reproduction
// described in DESIGN.md; "paper" runs the full-scale protocol (slow);
// "quick" is a seconds-scale run and "smoke" a sub-second one.
//
// -fault SPEC selects the stuck-at fault scenario every command
// injects from — "chen" (the paper's i.i.d. ratios, the default),
// "transient[:r0=..,r1=..]" (fresh lesion per forward pass),
// "cluster[:len=..,tile=..,r0=..,r1=..]" (row-burst defects), or
// "drop" (SA0-only transient, the drop-connect distribution). Specs
// are parsed by fault.Parse; 'ftpim scenarios' cross-evaluates the FT
// schemes under every built-in scenario (or the specs given as
// positional arguments).
//
// -workers N parallelizes the defect-evaluation Monte-Carlo loop and
// the large tensor kernels over N goroutines (default: all cores).
// Results are bit-identical at every worker count; -workers 1 is the
// exact legacy serial path.
//
// -events FILE streams every run event as schema-versioned JSON Lines
// (one object per line, schema "ftpim.events/v1") alongside the human
// progress output on stderr.
//
// Ctrl-C (SIGINT) cancels the run at the next batch or Monte-Carlo run
// boundary: partially trained models are not cached, the model cache is
// never left with a truncated entry, and the process exits with status
// 130.
//
// serve exposes the trained model as a long-running HTTP service
// (POST /v1/infer, POST /v1/defect-eval, GET /v1/healthz): concurrent
// inference requests are coalesced into micro-batches under a
// -batch-window latency budget, overload answers 429 + Retry-After,
// and SIGTERM/Ctrl-C drains gracefully — admission stops, queued
// batches flush, in-flight requests complete, exit 0. It binds -addr
// before loading the model and prints the address it bound, so
// -addr 127.0.0.1:0 serves on a free port that a script reads back.
//
// export quantizes the trained float model to int8 (symmetric,
// per-row weight scales, activation scales calibrated on -calib
// training images) and writes it as a single FTPM container file.
// serve -model FILE.ftpm serves that file without touching training
// or the model cache: the file is mmap'd read-only and the int8 weights
// alias the mapped pages, so cold start is file-open fast. export
// prints both top-1 accuracies; results/bench.sh records them with the
// two lanes' throughput and cold start in results/BENCH_quant.json.
//
// coordinator/worker distribute a defect sweep across processes: the
// coordinator shards each rate's Monte-Carlo runs into leases and
// serves them over TCP; workers rebuild the identical model from the
// job's preset+dataset (training is deterministic) and stream per-run
// accuracies back. The folded table is byte-identical to the
// single-process sweep at any worker count and under any worker kill
// schedule: a worker that dies or stalls past -dist-lease-ttl has its
// leases re-issued, a pool that stays empty past -dist-fallback-after
// degrades to in-process evaluation, and SIGTERM drains cleanly
// (completed rates are rendered, exit 0). With -checkpoint DIR the
// coordinator snapshots folded results after every lease and a
// restart with -resume continues where it left off.
//
// -checkpoint DIR enables crash-safe checkpointing: every training run
// snapshots its full state (weights, optimizer velocity, BN statistics,
// RNG cursor, epoch history) to DIR at epoch boundaries, every
// -ckpt-every epochs, and Ctrl-C flushes the last boundary before the
// process exits. Re-running the same command with -resume continues
// from the newest intact checkpoint and produces bit-identical results
// to the uninterrupted run; torn or bit-flipped checkpoint files fail
// their checksums and fall back to the previous good snapshot.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/ftpim/ftpim/internal/ckpt"
	"github.com/ftpim/ftpim/internal/core"
	"github.com/ftpim/ftpim/internal/experiments"
	"github.com/ftpim/ftpim/internal/fault"
	"github.com/ftpim/ftpim/internal/ftpm"
	"github.com/ftpim/ftpim/internal/obs"
	"github.com/ftpim/ftpim/internal/report"
	"github.com/ftpim/ftpim/internal/reram"
	"github.com/ftpim/ftpim/internal/tensor"
)

func main() {
	os.Exit(run())
}

// run is main's body with an explicit exit code so deferred cleanup
// (the -events file, signal teardown) executes before the process
// exits: 0 success, 1 error, 2 usage, 130 interrupted (128 + SIGINT).
func run() int {
	if len(os.Args) < 2 {
		usage()
		return 2
	}
	cmd, args := os.Args[1], os.Args[2:]
	if cmd == "version" || cmd == "-version" || cmd == "--version" {
		printVersion(os.Stdout)
		return 0
	}
	verb := ""
	if cmd == "device" && len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		verb, args = args[0], args[1:]
	}
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	preset := fs.String("preset", "repro", "experiment scale: smoke, quick, repro, or paper")
	cache := fs.String("cache", ".cache", "model cache directory (empty to disable)")
	dataset := fs.String("dataset", "both", "dataset: c10, c100, or both")
	csv := fs.Bool("csv", false, "emit CSV instead of an aligned table")
	which := fs.String("which", "ladder", "ablation: ladder, resample, or crossbar")
	psa := fs.Float64("psa", 0.01, "device: per-cell stuck-at rate when drawing a profile")
	profile := fs.String("profile", "device.profile", "device: profile file path")
	outDir := fs.String("out", "results", "output directory for 'all'")
	faultSpec := fs.String("fault", "",
		"fault scenario spec (name[:key=value,...], e.g. chen, transient, cluster:len=8, drop); empty = chen defaults")
	verbose := fs.Bool("v", true, "log training progress")
	events := fs.String("events", "", "write schema-versioned JSONL run events to FILE")
	workers := fs.Int("workers", runtime.NumCPU(),
		"worker goroutines for defect evaluation and sharded kernels (1 = serial legacy path; results are identical at any count)")
	checkpoint := fs.String("checkpoint", "",
		"crash-safe checkpoint directory: every training run snapshots its full state there (empty to disable)")
	ckptEvery := fs.Int("ckpt-every", 1, "epochs between checkpoint writes")
	resume := fs.Bool("resume", false,
		"resume interrupted training runs from the newest intact checkpoint in -checkpoint")
	addr := fs.String("addr", "127.0.0.1:8080", "serve: listen address")
	maxBatch := fs.Int("max-batch", 32, "serve: largest inference micro-batch")
	batchWindow := fs.Duration("batch-window", 2*time.Millisecond,
		"serve: micro-batch latency budget, measured from the first queued request")
	queueDepth := fs.Int("queue", 256, "serve: infer admission queue depth (full queue answers 429)")
	executors := fs.Int("executors", 2, "serve: concurrent batch executors, one warm model clone each")
	modelFile := fs.String("model", "",
		"serve: serve a quantized FTPM model file zero-copy (skips training and the model cache; Monte-Carlo endpoints answer 501)")
	exportOut := fs.String("o", "", "export: output FTPM path (default model-DATASET.ftpm)")
	calibN := fs.Int("calib", 256,
		"export: calibration images drawn from the train split for activation scales")
	connect := fs.String("connect", "", "worker: coordinator address (HOST:PORT)")
	workerID := fs.String("worker-id", "", "worker: pool id (default: host-pid)")
	distLease := fs.Int("dist-lease", 8, "coordinator: Monte-Carlo runs per lease")
	distLeaseTTL := fs.Duration("dist-lease-ttl", 10*time.Second,
		"coordinator: lease heartbeat deadline; a silent lease is re-issued after this")
	distFallback := fs.Duration("dist-fallback-after", 3*time.Second,
		"coordinator: how long the worker pool may be empty before leases run in-process")
	distRuns := fs.Int("runs", 0,
		"coordinator: override the preset's Monte-Carlo runs per rate (0 = preset default)")
	distSlowMs := fs.Int("dist-slow-ms", 0,
		"worker: artificial delay per lease in milliseconds (failover testing aid)")

	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Validate flag combinations up front: a sweep that runs for hours
	// must not discover an unusable flag value at its first write.
	datasets := []string{"c10", "c100"}
	if *dataset != "both" {
		datasets = []string{*dataset}
	}
	for _, ds := range datasets {
		if err := experiments.Validate(*preset, ds); err != nil {
			return usageErr("%v", err)
		}
	}
	if *workers < 0 {
		return usageErr("-workers must be >= 0, got %d", *workers)
	}
	if *ckptEvery < 1 {
		return usageErr("-ckpt-every must be >= 1, got %d", *ckptEvery)
	}
	if *resume && *checkpoint == "" {
		return usageErr("-resume requires -checkpoint DIR")
	}
	if *checkpoint != "" {
		if err := probeWritableDir(*checkpoint); err != nil {
			return usageErr("-checkpoint %s is not writable: %v", *checkpoint, err)
		}
	}
	if *maxBatch < 1 {
		return usageErr("-max-batch must be >= 1, got %d", *maxBatch)
	}
	if *batchWindow < 0 {
		return usageErr("-batch-window must be >= 0, got %v", *batchWindow)
	}
	if *queueDepth < 1 {
		return usageErr("-queue must be >= 1, got %d", *queueDepth)
	}
	if *executors < 1 {
		return usageErr("-executors must be >= 1, got %d", *executors)
	}
	if *distLease < 1 {
		return usageErr("-dist-lease must be >= 1, got %d", *distLease)
	}
	if *distLeaseTTL <= 0 || *distFallback <= 0 {
		return usageErr("-dist-lease-ttl and -dist-fallback-after must be positive")
	}
	if *distRuns < 0 || *distSlowMs < 0 {
		return usageErr("-runs and -dist-slow-ms must be >= 0")
	}
	if *calibN < 1 {
		return usageErr("-calib must be >= 1, got %d", *calibN)
	}
	if *modelFile != "" && cmd != "serve" {
		return usageErr("-model is a serve flag")
	}
	var scenario fault.Scenario
	if *faultSpec != "" {
		var perr error
		if scenario, perr = fault.Parse(*faultSpec); perr != nil {
			return usageErr("-fault: %v", perr)
		}
	}

	var sinks []obs.Sink
	if *verbose {
		sinks = append(sinks, obs.NewProgress(os.Stderr))
	}
	if *events != "" {
		f, err := os.Create(*events)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ftpim: create %s: %v\n", *events, err)
			return 1
		}
		defer f.Close()
		sinks = append(sinks, obs.NewJSONL(f))
	}
	if n := crashAfterFromEnv(); n > 0 {
		sinks = append(sinks, newCrashAfterSink(n))
	}
	sink := obs.Multi(sinks...)

	// SIGINT/SIGTERM cancel the context; every training batch and
	// Monte-Carlo run checks it, so interruption lands on a clean
	// boundary. A second signal kills the process the default way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	tensor.SetWorkers(*workers)
	env := experiments.NewEnv(*preset, *cache, sink)
	env.Scale.Workers = *workers
	env.Scenario = scenario
	if *checkpoint != "" {
		env.Ckpt = ckpt.NewStore(*checkpoint, ckpt.DefaultKeep, *resume, sink)
		env.CkptEvery = *ckptEvery
	}

	var err error
	switch cmd {
	case "table1":
		for _, ds := range datasets {
			var res *experiments.Table1Result
			if res, err = experiments.Table1(ctx, env, ds); err != nil {
				break
			}
			emitTable(os.Stdout, res.Table(), *csv)
		}
	case "table2":
		var res *experiments.Table2Result
		if res, err = experiments.Table2(ctx, env); err == nil {
			emitTable(os.Stdout, res.Table(), *csv)
		}
	case "fig2":
		for _, ds := range datasets {
			var res *experiments.Figure2Result
			if res, err = experiments.Figure2(ctx, env, ds); err != nil {
				break
			}
			if *csv {
				fmt.Print(res.CSV())
			} else {
				fmt.Print(res.Plot())
			}
		}
	case "ablation":
		err = runAblation(ctx, env, *which)
	case "scenarios":
		err = runScenarios(ctx, env, *dataset, *csv, fs.Args())
	case "device":
		err = runDevice(ctx, env, verb, *dataset, *psa, *profile)
	case "all":
		err = runAll(ctx, env, *outDir)
	case "serve":
		err = runServe(ctx, env, *dataset, serveOpts{
			addr: *addr, maxBatch: *maxBatch, batchWindow: *batchWindow,
			queue: *queueDepth, executors: *executors, model: *modelFile,
		})
	case "export":
		err = runExport(ctx, env, *dataset, *exportOut, *calibN)
	case "coordinator":
		err = runCoordinator(ctx, env, *dataset, distOpts{
			addr: *addr, leaseRuns: *distLease, leaseTTL: *distLeaseTTL,
			fallbackAfter: *distFallback, runs: *distRuns,
		})
	case "worker":
		err = runWorker(ctx, env, distOpts{
			connect: *connect, workerID: *workerID, slowMs: *distSlowMs,
		})
	case "help", "-h", "--help":
		usage()
		return 0
	default:
		return fail("unknown command %q", cmd)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "ftpim: interrupted")
			return 130
		}
		return fail("%v", err)
	}
	return 0
}

func emitTable(w io.Writer, t *report.Table, csv bool) {
	if csv {
		t.RenderCSV(w)
	} else {
		t.Render(w)
		fmt.Fprintln(w)
	}
}

func runAblation(ctx context.Context, env *experiments.Env, which string) error {
	switch which {
	case "ladder":
		rows, err := experiments.AblationLadder(ctx, env, "c10", 0.1, 4)
		if err != nil {
			return err
		}
		experiments.LadderTable(rows, 0.1).Render(os.Stdout)
	case "resample":
		res, err := experiments.AblationResample(ctx, env, "c10", 0.1)
		if err != nil {
			return err
		}
		t := report.NewTable("A2: fault resampling granularity at Psa^T=0.1",
			"variant", "clean acc %", "defect acc % @0.1")
		t.AddRow("per-epoch", f2(res.PerEpochCleanAcc), f2(res.PerEpochDefectAcc))
		t.AddRow("per-batch", f2(res.PerBatchCleanAcc), f2(res.PerBatchDefectAcc))
		t.Render(os.Stdout)
	case "crossbar":
		res, err := experiments.AblationCrossbar(ctx, env, "c10", 0.01, reram.DefaultMapOptions())
		if err != nil {
			return err
		}
		t := report.NewTable("A3: weight-level fault model vs circuit-level crossbar (Psa=0.01)",
			"measurement", "accuracy %")
		t.AddRow("digital weights (clean)", f2(res.CleanAcc))
		t.AddRow("crossbar, quantized, fault-free", f2(res.QuantizedAcc))
		t.AddRow("weight-level stuck-at injection", f2(res.WeightLevelAcc))
		t.AddRow("circuit-level per-cell fault maps", f2(res.CircuitAcc))
		t.Render(os.Stdout)
	default:
		return fmt.Errorf("unknown ablation %q", which)
	}
	return nil
}

// runScenarios cross-evaluates the FT schemes under each fault
// scenario (positional args as specs; none = every built-in) and
// renders the stability table.
func runScenarios(ctx context.Context, env *experiments.Env, dataset string, csv bool, specs []string) error {
	if dataset == "both" {
		dataset = "c10"
	}
	res, err := experiments.ScenarioSweep(ctx, env, dataset, specs)
	if err != nil {
		return err
	}
	emitTable(os.Stdout, res.Table(), csv)
	return nil
}

// runDevice implements the per-device fleet workflow: draw a defect
// profile for one manufactured unit (as a march-test station would),
// archive it, and evaluate or fault-aware-retrain the golden model
// against it.
func runDevice(ctx context.Context, env *experiments.Env, verb, dataset string, psa float64, profile string) error {
	if dataset == "both" {
		dataset = "c10"
	}
	if verb == "" {
		return errors.New("device needs a verb: draw | eval | retrain")
	}
	net, err := env.Pretrained(ctx, dataset)
	if err != nil {
		return err
	}
	_, test := env.Dataset(dataset)
	weights := core.WeightTensors(net)
	switch verb {
	case "draw":
		// The profile is drawn from the selected fault scenario (-fault);
		// the default chen scenario reproduces the historical
		// DrawDeviceMap(ChenModel()) stream byte for byte.
		sc := env.Scenario
		if sc == nil {
			sc = fault.Default()
		}
		rng := tensor.NewRNG(env.Scale.Seed).Stream("device-profile")
		dm := sc.DrawMap(rng, weights, psa)
		if err := ckpt.WriteFile(profile, dm.Encode()); err != nil {
			return fmt.Errorf("save profile: %v", err)
		}
		fmt.Printf("drew device profile: %d stuck cells at Psa=%g -> %s\n", dm.NumFaults(), psa, profile)
	case "eval", "retrain":
		file, err := os.ReadFile(profile)
		if err != nil {
			return fmt.Errorf("open %s: %v (run 'ftpim device draw' first)", profile, err)
		}
		dm, err := fault.DecodeDeviceMap(file)
		if err != nil {
			return fmt.Errorf("load profile %s: %v", profile, err)
		}
		acc, err := core.EvalOnDevice(ctx, net, test, dm, 128)
		if err != nil {
			return err
		}
		fmt.Printf("golden model on this device: %.2f%%\n", acc*100)
		if verb == "retrain" {
			train, _ := env.Dataset(dataset)
			cfg := core.Config{
				Epochs: env.Scale.FTEpochs, Batch: env.Scale.Batch,
				LR: env.Scale.FTLR, Momentum: env.Scale.Momentum,
				WeightDecay: env.Scale.WeightDecay, Aug: env.Scale.Aug,
				Seed: env.Scale.Seed + 97, Sink: env.Sink,
			}
			if env.Ckpt != nil {
				cfg.Ckpt = env.Ckpt.Run("device-retrain-" + dataset)
				cfg.CkptEvery = env.CkptEvery
			}
			copyNet, err := env.Pretrained(ctx, dataset) // retrain a copy via snapshot
			if err != nil {
				return err
			}
			snap := copyNet.Snapshot()
			if _, err := core.FaultAwareRetrain(ctx, copyNet, train, cfg, dm); err != nil {
				if rerr := copyNet.Restore(snap); rerr != nil {
					return fmt.Errorf("restore golden model: %v", rerr)
				}
				return err
			}
			after, aerr := core.EvalOnDevice(ctx, copyNet, test, dm, 128)
			if err := copyNet.Restore(snap); err != nil {
				return fmt.Errorf("restore golden model: %v", err)
			}
			if aerr != nil {
				return aerr
			}
			fmt.Printf("after fault-aware retraining [5]:  %.2f%%\n", after*100)
			if cfg.Ckpt != nil {
				cfg.Ckpt.Clear() // retrain finished; its checkpoints are dead weight
			}
		}
	default:
		return fmt.Errorf("unknown device verb %q", verb)
	}
	return nil
}

func runAll(ctx context.Context, env *experiments.Env, outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fmt.Errorf("mkdir %s: %v", outDir, err)
	}
	write := func(name, content string) error {
		path := filepath.Join(outDir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			return fmt.Errorf("write %s: %v", path, err)
		}
		fmt.Printf("wrote %s\n", path)
		return nil
	}
	for _, ds := range []string{"c10", "c100"} {
		t1, err := experiments.Table1(ctx, env, ds)
		if err != nil {
			return err
		}
		var txt, csv strings.Builder
		t1.Table().Render(&txt)
		t1.Table().RenderCSV(&csv)
		if err := write("table1-"+ds+".txt", txt.String()); err != nil {
			return err
		}
		if err := write("table1-"+ds+".csv", csv.String()); err != nil {
			return err
		}

		f2r, err := experiments.Figure2(ctx, env, ds)
		if err != nil {
			return err
		}
		if err := write("figure2-"+ds+".csv", f2r.CSV()); err != nil {
			return err
		}
		if err := write("figure2-"+ds+".txt", f2r.Plot()); err != nil {
			return err
		}
	}
	t2, err := experiments.Table2(ctx, env)
	if err != nil {
		return err
	}
	var txt, csv strings.Builder
	t2.Table().Render(&txt)
	t2.Table().RenderCSV(&csv)
	if err := write("table2.txt", txt.String()); err != nil {
		return err
	}
	if err := write("table2.csv", csv.String()); err != nil {
		return err
	}

	sres, err := experiments.ScenarioSweep(ctx, env, "c10", nil)
	if err != nil {
		return err
	}
	var stxt, scsv strings.Builder
	sres.Table().Render(&stxt)
	sres.Table().RenderCSV(&scsv)
	if err := write("stability-scenarios.txt", stxt.String()); err != nil {
		return err
	}
	if err := write("stability-scenarios.csv", scsv.String()); err != nil {
		return err
	}

	var ab strings.Builder
	rows, err := experiments.AblationLadder(ctx, env, "c10", 0.1, 4)
	if err != nil {
		return err
	}
	experiments.LadderTable(rows, 0.1).Render(&ab)
	res, err := experiments.AblationResample(ctx, env, "c10", 0.1)
	if err != nil {
		return err
	}
	fmt.Fprintf(&ab, "\nA2: per-epoch clean %.2f%% defect %.2f%% | per-batch clean %.2f%% defect %.2f%%\n",
		res.PerEpochCleanAcc, res.PerEpochDefectAcc, res.PerBatchCleanAcc, res.PerBatchDefectAcc)
	cb, err := experiments.AblationCrossbar(ctx, env, "c10", 0.01, reram.DefaultMapOptions())
	if err != nil {
		return err
	}
	fmt.Fprintf(&ab, "\nA3 @Psa=0.01: clean %.2f%% | quantized %.2f%% | weight-level %.2f%% | circuit %.2f%%\n",
		cb.CleanAcc, cb.QuantizedAcc, cb.WeightLevelAcc, cb.CircuitAcc)
	return write("ablations.txt", ab.String())
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

func fail(format string, a ...any) int {
	fmt.Fprintf(os.Stderr, "ftpim: "+format+"\n", a...)
	return 1
}

// printVersion reports the build plus the CPU vector features the
// kernels use on this host.
func printVersion(w io.Writer) {
	version := "devel"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		version = bi.Main.Version
	}
	cpu := tensor.CPUFeatures()
	if cpu == "" {
		cpu = "none"
	}
	fmt.Fprintf(w, "ftpim %s %s %s/%s\ncpu features: %s\nmodel format: %s (int8 symmetric, zero-copy mmap)\n",
		version, runtime.Version(), runtime.GOOS, runtime.GOARCH, cpu, ftpm.FormatName)
}

// usageErr reports a flag-validation failure with the usage exit code.
func usageErr(format string, a ...any) int {
	fmt.Fprintf(os.Stderr, "ftpim: "+format+"\n", a...)
	return 2
}

// probeWritableDir verifies dir exists (creating it if needed) and
// accepts writes, by round-tripping a probe file — the cheapest honest
// answer to "will the first checkpoint write succeed?".
func probeWritableDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, ".probe-*")
	if err != nil {
		return err
	}
	name := f.Name()
	f.Close()
	return os.Remove(name)
}

// crashAfterFromEnv reads FTPIM_CRASH_AFTER_CKPT, the deterministic
// kill switch used by the kill-and-resume CI leg: a positive integer N
// makes the process die with SIGKILL's exit status right after the Nth
// checkpoint reaches disk. Unset, empty, or non-positive disables it.
func crashAfterFromEnv() int {
	v := os.Getenv("FTPIM_CRASH_AFTER_CKPT")
	if v == "" {
		return 0
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		fmt.Fprintf(os.Stderr, "ftpim: ignoring FTPIM_CRASH_AFTER_CKPT=%q (want a positive integer)\n", v)
		return 0
	}
	return n
}

// crashAfterSink counts ckpt.save events and exits hard — no deferred
// cleanup, exactly like a kill — when the quota is reached. It emulates
// a crash at a reproducible training position, which a real SIGKILL
// cannot do.
type crashAfterSink struct {
	left atomic.Int64
}

func newCrashAfterSink(n int) *crashAfterSink {
	s := &crashAfterSink{}
	s.left.Store(int64(n))
	return s
}

func (s *crashAfterSink) Enabled() bool { return true }

func (s *crashAfterSink) Emit(e obs.Event) {
	if e.Kind == obs.KindCkptSave && s.left.Add(-1) == 0 {
		fmt.Fprintln(os.Stderr, "ftpim: FTPIM_CRASH_AFTER_CKPT quota reached; simulating crash")
		os.Exit(137)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `ftpim — fault-tolerant DNNs for ReRAM PIM: experiment runner

commands:
  table1    regenerate Table I (defect accuracy vs testing fault rate)
  table2    regenerate Table II (Stability Score, dense vs ADMM-pruned)
  fig2      regenerate Figure 2 (pruned-model fragility, no FT training)
  ablation  run an ablation study (-which ladder|resample|crossbar)
  scenarios cross-evaluate FT schemes under each fault scenario
            (positional SPECs, default: chen transient cluster drop)
  device    per-device workflow: draw | eval | retrain (-psa, -profile)
  all       regenerate everything into -out DIR
  serve     HTTP inference + defect-eval service with dynamic
            micro-batching (-addr, -max-batch, -batch-window, -queue,
            -executors; -model FILE.ftpm serves an exported int8 model
            zero-copy via mmap); prints the address it bound
  export    quantize the trained model to int8 and write one
            mmap-able FTPM file (-o FILE.ftpm, -calib N); prints the
            float32 and int8 top-1 accuracy
  coordinator  shard the defect sweep over TCP workers with lease-based
            failover (-addr, -dist-lease, -dist-lease-ttl,
            -dist-fallback-after, -runs; -checkpoint/-resume for
            restartable sweeps); byte-identical to the single-process
            sweep at any worker count
  worker    join a coordinator's pool (-connect HOST:PORT, -worker-id,
            -dist-slow-ms); dials with jittered exponential backoff
  version   print build and detected CPU features

common flags: -preset smoke|quick|repro|paper   -cache DIR   -dataset c10|c100|both
              -workers N   -events FILE (JSONL run events)   -v=false (quiet)
              -checkpoint DIR   -ckpt-every N   -resume
              -fault SPEC (fault scenario: chen, transient, cluster:len=8, drop, ...)

Ctrl-C cancels at the next batch / Monte-Carlo run boundary (exit 130);
partially trained models are never cached. With -checkpoint DIR every
training run snapshots its full state (weights, optimizer, RNG cursor)
at epoch boundaries, Ctrl-C flushes a final checkpoint before exiting,
and a later run with -resume continues bit-identically from the newest
intact snapshot — torn or corrupted files are detected by checksum and
skipped.`)
}
