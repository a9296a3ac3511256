// Command perfbench is the repository's benchmark: it runs the ftpim
// packages in-process through their public functions on one of three
// workloads and reports end-to-end metrics (untraced run) or per-layer
// metrics (traced run), checking every output it measures.
//
//	perfbench --workload table1|serve-float|serve-int8 --seed N --seconds S --trace 0|1
//
// Run it through run.sh from the repository root, which builds it and
// keeps all state under .bench_build/perfbench. The last line of
// standard output is one JSON object:
//
//	{"correct":true,"attempted":…,"failed":…,"metrics":{"name":{"value":…,"unit":"…"}}}
//
// The exit status is non-zero when any output check failed. README.md
// in this directory defines every workload and metric.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/ftpim/ftpim/internal/tensor"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	state    string // directory for prepared models, traces and reports
	source   string // digest of the sources the binary was built from
	commit   string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line printed last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates a run's checks and prints the human-readable
// report.
type report struct {
	out       io.Writer
	attempted int // operations attempted: requests, repetitions, checks
	failed    int // failed, refused or wrong operations
	wrong     []string
}

func (r *report) printf(format string, args ...any) { fmt.Fprintf(r.out, format+"\n", args...) }

// count records n attempted operations of which bad failed.
func (r *report) count(n, bad int) {
	r.attempted += n
	r.failed += bad
}

// check records one verified output; a false ok marks the run wrong.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		msg := fmt.Sprintf(format, args...)
		r.wrong = append(r.wrong, msg)
		r.printf("CHECK FAILED: %s", msg)
	}
}

// wrongOutputs records outputs that failed verification outside
// report.check (served requests verified in bulk).
func (r *report) wrongOutputs(n int, what string) {
	if n > 0 {
		msg := fmt.Sprintf("%d %s", n, what)
		r.wrong = append(r.wrong, msg)
		r.printf("CHECK FAILED: %s", msg)
	}
}

// workloads maps each workload name to its runner. A runner returns the
// end-to-end metrics of one untraced pass (tr == nil) or of a traced
// pass, plus what the per-layer probes need.
var workloads = map[string]func(*runCtx, *tracer) (*pass, error){
	"table1":      runTable1,
	"serve-float": func(rc *runCtx, tr *tracer) (*pass, error) { return runServe(rc, tr, false) },
	"serve-int8":  func(rc *runCtx, tr *tracer) (*pass, error) { return runServe(rc, tr, true) },
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var opt options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&opt.workload, "workload", "", "table1, serve-float or serve-int8")
	fs.Uint64Var(&opt.seed, "seed", 1, "workload seed: arrival times, request images, FT and Monte-Carlo seeds")
	fs.IntVar(&opt.seconds, "seconds", 30, "nominal measured time of one run")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&opt.state, "state", ".bench_build/perfbench", "directory for prepared models, traces and reports")
	fs.StringVar(&opt.source, "source", "", "digest of the benchmarked sources")
	fs.StringVar(&opt.commit, "commit", "", "commit of the benchmarked sources")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt.trace = *trace == 1
	runner, ok := workloads[opt.workload]
	if !ok || opt.seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload %s, --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	rep := &report{out: out}
	res, err := execute(opt, runner, rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, _ := json.Marshal(res)
	fmt.Fprintf(out, "%s\n", line)
	return exitCode(res)
}

// exitCode is non-zero when any output check failed.
func exitCode(res result) int {
	if !res.Correct {
		return 3
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// execute pins the configuration, prepares the model, runs the workload
// (with a tracer and the per-layer probes for --trace 1) and assembles
// the result. The traced run's overhead is its span count times the
// measured cost of one span; the untraced runs' "timed work" lines give
// the other side of the comparison.
func execute(opt options, runner func(*runCtx, *tracer) (*pass, error), rep *report) (result, error) {
	tensor.SetNumerics(tensor.NumericsExact)
	nproc := runtime.NumCPU()
	tensor.SetWorkers(nproc)
	rc := &runCtx{opt: opt, rep: rep, nproc: nproc}
	printHost(rep, opt, nproc)

	prepStart := time.Now()
	var err error
	if rc.model, err = prepare(opt.state, nproc); err != nil {
		return result{}, fmt.Errorf("prepare: %v", err)
	}
	rep.printf("prepare_s %.3f (model preparation, not part of setup_s)", time.Since(prepStart).Seconds())

	if !opt.trace {
		plain, err := runner(rc, nil)
		if err != nil {
			return result{}, err
		}
		defer plain.close()
		plain.printNamed(rep)
		return finish(rep, plain.endToEnd()), nil
	}
	perSpan := spanCost()
	tr := newTracer()
	traced, err := runner(rc, tr)
	if err != nil {
		return result{}, err
	}
	defer traced.close()
	traced.printNamed(rep)
	spans := len(tr.spans)
	overhead := time.Duration(spans) * perSpan
	rep.printf("trace overhead: %d spans x %v = %v, %.3f%% of %.3f s timed work (compare the untraced runs' timed work)",
		spans, perSpan, overhead, 100*overhead.Seconds()/traced.work.Seconds(), traced.work.Seconds())
	metrics := probeLayers(rc, tr, traced)
	if err := writeTrace(opt, tr); err != nil {
		return result{}, err
	}
	printSelfTimes(rep, tr)
	return finish(rep, metrics), nil
}

// spanCost is the measured cost of recording one span, begin to end.
func spanCost() time.Duration {
	const n = 100_000
	t := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin(0, "cost"))
	}
	return time.Since(start) / n
}

// finish prints the check summary and the metrics and builds the result.
func finish(rep *report, metrics map[string]metric) result {
	rep.printf("checks: %d operations, %d failed/refused/wrong, fail_share %.6f", rep.attempted, rep.failed,
		float64(rep.failed)/float64(max(rep.attempted, 1)))
	printMetrics(rep, metrics)
	return rep.result(metrics)
}

// result is the contract line for the checks recorded so far.
func (r *report) result(metrics map[string]metric) result {
	return result{
		Correct:   len(r.wrong) == 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   metrics,
	}
}

func printHost(rep *report, opt options, nproc int) {
	rep.printf("host: nproc %d  GOMAXPROCS %d  cpu %q  features %q  numerics %s  go %s",
		nproc, runtime.GOMAXPROCS(0), cpuModel(), tensor.CPUFeatures(), tensor.ActiveNumerics(), runtime.Version())
	rep.printf("run: workload %s  seed %d  seconds %d  trace %v  commit %s  source %s",
		opt.workload, opt.seed, opt.seconds, opt.trace, orNone(opt.commit), orNone(opt.source))
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// releaseAndResetPeak returns freed heap to the OS and restarts the
// kernel's peak resident set (VmHWM) from the current resident set, so
// the next peakRSSMiB covers only what runs after it. Where the reset is
// unavailable the peak stays the process's lifetime peak.
func releaseAndResetPeak() {
	debug.FreeOSMemory()
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB is the process's peak resident set (VmHWM), falling back
// to the Go runtime's total reservation where /proc is unavailable.
func peakRSSMiB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

func printMetrics(rep *report, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		rep.printf("metric %-32s %14.6g %s", n, m[n].Value, m[n].Unit)
	}
}

func printSelfTimes(rep *report, tr *tracer) {
	self := tr.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	rep.printf("span self time (traced pass and probes):")
	for _, n := range names {
		rep.printf("  %-40s %10.3f ms", n, ms(self[n]))
	}
}

func writeTrace(opt options, tr *tracer) error {
	dir := filepath.Join(opt.state, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return tr.write(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", opt.workload, opt.seed)))
}
