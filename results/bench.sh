#!/usr/bin/env bash
# Regenerates every results/BENCH_*.json in one run on this host:
#
#   bash results/bench.sh
#
# Run it from the repository root on an otherwise idle host. It runs
#   - perfbench (perfbench/README.md) on both serving lanes over a fixed
#     seed set. The untraced runs give throughput, latency, setup time and
#     peak memory. One traced run per lane gives that lane's model loader
#     from its own setup spans: the float model cache on serve-float, the
#     FTPM file on serve-int8;
#   - ftpim export against perfbench's prepared model, for the float32 and
#     int8 top-1 accuracy. The model cache key holds no worker count, so
#     export reuses the prepared model instead of retraining;
#   - the kernel and sharded-path go test benchmarks, each against the
#     reference or serial run it is paired with, one-shot FT retraining
#     among them. CPU speed on a shared host drifts within seconds, so
#     the go test runs go in interleaved rounds and a speedup is the
#     median of its per-round ratios;
#   - a cold `ftpim all -preset quick` at -workers 1 and 2, in rounds,
#     its model cache and output in a fresh temporary directory (all
#     writes to results/ by default): the wall time of regenerating every
#     table from an empty cache.
# The python3 block at the end computes every number in the five files
# from those outputs: medians, ratios and the host block. The files are
# written to .bench_build/bench/ first and moved into results/ only after
# every step has succeeded. A command that fails, a perfbench run that
# reports "correct": false, or a paired benchmark missing from the
# go test output leaves results/ untouched and exits non-zero.
set -euo pipefail

seeds="1 2 3 4 5" # perfbench seeds of the untraced runs
seconds=10        # perfbench --seconds of every run
rounds=5          # interleaved rounds of the go test benchmarks
coldrounds=3      # rounds of the cold quick regeneration, each at -workers 1 and 2

tmp=.bench_build/bench
rm -rf "$tmp"
mkdir -p "$tmp/out"
git describe --always --dirty >"$tmp/commit" 2>/dev/null || echo none >"$tmp/commit"

# run NAME CMD...: runs CMD with its standard output in $tmp/NAME.out
# and its arguments in $tmp/NAME.cmd, for the files' command lists.
run() {
	local name=$1
	shift
	echo "== $name: $*" >&2
	printf '%s\0' "$@" >"$tmp/$name.cmd"
	"$@" >"$tmp/$name.out"
}

# allq NAME WORKERS: one cold `ftpim all -preset quick` at -workers
# WORKERS in a fresh directory under $tmp, with its wall time in seconds
# in $tmp/NAME.out and its command, that directory written DIR, in
# $tmp/NAME.cmd.
allq() {
	local name=$1 workers=$2 dir t0 t1
	dir=$(mktemp -d "$tmp/allq.XXXXXX")
	local cmd=("$tmp/ftpim" all -preset quick -workers "$workers" -v=false -cache "$dir/cache" -out "$dir/out")
	echo "== $name: ${cmd[*]}" >&2
	printf '%s\0' "${cmd[@]//$dir/DIR}" >"$tmp/$name.cmd"
	t0=$(date +%s.%N)
	"${cmd[@]}" >/dev/null
	t1=$(date +%s.%N)
	python3 -c 'import sys; print(f"{float(sys.argv[2]) - float(sys.argv[1]):.3f}")' "$t0" "$t1" >"$tmp/$name.out"
	rm -rf "$dir"
}

for seed in $seeds; do
	for lane in serve-float serve-int8; do
		run "$lane-seed$seed" bash perfbench/run.sh --workload "$lane" --seed "$seed" --seconds "$seconds" --trace 0
	done
done
for lane in serve-float serve-int8; do
	run "$lane-traced" bash perfbench/run.sh --workload "$lane" --seed 1 --seconds "$seconds" --trace 1
done

run build go build -o "$tmp/ftpim" ./cmd/ftpim
run export "$tmp/ftpim" export -preset repro -dataset c10 \
	-cache .bench_build/perfbench/models -v=false -o "$tmp/model.ftpm"

for round in $(seq "$rounds"); do
	run "gemm.$round" go test ./internal/tensor/ -run '^$' \
		-bench '256Serial|MatMul64' -benchtime 25x -timeout 30m
	run "conv.$round" go test ./internal/tensor/ -run '^$' \
		-bench 'ConvFwd|ConvBwd' -benchtime 25x -timeout 30m
	run "parallel.$round" go test . -run '^$' \
		-bench 'Parallel' -benchtime 5x -timeout 30m
done
for round in $(seq "$coldrounds"); do
	for w in 1 2; do
		allq "allq.w$w.$round" "$w"
	done
done

python3 - "$tmp" <<'EOF'
import glob, json, os, re, shlex, statistics, sys, time

tmp = sys.argv[1]


def fail(msg):
    sys.exit("bench.sh: " + msg)


def out(name):
    with open(os.path.join(tmp, name + ".out")) as f:
        return f.read()


def names(pattern):
    return [os.path.basename(p)[:-len(".out")] for p in glob.glob(os.path.join(tmp, pattern + ".out"))]


def cmds(*names):
    lines = []
    for name in names:
        with open(os.path.join(tmp, name + ".cmd")) as f:
            lines.append(shlex.join(f.read().split("\0")[:-1]))
    return lines


def write(name, schema, description, commands, body):
    rec = {"schema": schema, "created": created, "host": host,
           "description": description, "commands": commands}
    rec.update(body)
    with open(os.path.join(tmp, "out", name), "w") as f:
        f.write(json.dumps(rec, indent=2) + "\n")


# perfbench: the report's host line and the JSON result on its last line.
HOST = re.compile(r'^host: nproc (\d+)\s+GOMAXPROCS \d+\s+cpu "(.*)"\s+features "(.*)"\s+'
                  r'numerics (\S+)\s+go (\S+)$', re.M)
hosts = set()


def perfbench(name):
    text = out(name)
    res = json.loads(text.rstrip("\n").rsplit("\n", 1)[-1])
    if not res["correct"]:
        fail(f"{name}: perfbench reports \"correct\": false")
    m = HOST.search(text)
    if not m:
        fail(f"{name}: no host line in the perfbench report")
    hosts.add(m.groups())
    return res


def seed_of(name):
    return int(name.rsplit("seed", 1)[1])


E2E = ["ops_per_s", "op_ms", "setup_s", "peak_rss_mb"]
LANES = ["serve-float", "serve-int8"]
untraced = sorted(names("serve-*-seed*"), key=lambda name: (seed_of(name), name))  # the order they ran in
lanes = {}
for lane in LANES:
    runs = []
    for name in untraced:
        if name.startswith(lane + "-seed"):
            res = perfbench(name)
            run = {"seed": seed_of(name), "attempted": res["attempted"], "failed": res["failed"]}
            run.update({k: res["metrics"][k]["value"] for k in E2E})
            runs.append(run)
    lanes[lane] = {"median": {k: statistics.median(r[k] for r in runs) for k in E2E}, "runs": runs}
traced = {lane: perfbench(lane + "-traced")["metrics"] for lane in LANES}
if len(hosts) != 1:
    fail("perfbench runs report different hosts")
nproc, cpu, features, numerics, gover = hosts.pop()

# go test: per group, one {benchmark: ns/op} map per round.
BENCH = re.compile(r"^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(\d+(?:\.\d+)?) ns/op", re.M)
gotest = {group: [{b: float(v) for b, v in BENCH.findall(out(name))} for name in names(group + ".*")]
          for group in ["gemm", "conv", "parallel"]}


def samples(group, bench):
    if any(bench not in r for r in gotest[group]):
        fail(f"{bench} is missing from the {group} go test output")
    return [r[bench] for r in gotest[group]]


def ns(group, bench):
    return round(statistics.median(samples(group, bench)))


def ratio(group, slow, quick):
    """Median over rounds of slow's ns/op over quick's in the same round."""
    return round(statistics.median(a / b for a, b in zip(samples(group, slow), samples(group, quick))), 3)


with open(os.path.join(tmp, "commit")) as f:
    commit = f.read().strip()
goos = re.search(r"^goos: (\S+)", out("gemm.1"), re.M).group(1)
goarch = re.search(r"^goarch: (\S+)", out("gemm.1"), re.M).group(1)
host = {"cpu": cpu, "cpu_features": features, "nproc": int(nproc), "numerics": numerics,
        "go": gover, "goos": goos, "goarch": goarch, "commit": commit}
created = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())

write("BENCH_serve.json", "ftpim.bench.serve/v2",
      "perfbench serve-float (float lane, model cache) and serve-int8 (int8 lane, mmap'd FTPM "
      "export), untraced, one run per seed; every served output is checked against the "
      "in-process result. ops_per_s is infer_sat_rps (closed-loop saturation), op_ms is "
      "infer_p50_ms.light (open-loop light phase), setup_s and peak_rss_mb as perfbench/README.md "
      "defines them; median is over the seeds.",
      cmds(*untraced), {"lanes": lanes})

m = re.search(r"^exported (\S+) \((\S+)/(\S+), \d+ classes\)", out("export"), re.M)
acc = re.search(r"^top-1: float32 ([\d.]+)%\s+int8 ([\d.]+)%", out("export"), re.M)
if not m or not acc:
    fail("unexpected ftpim export output")
float_acc, int8_acc = float(acc.group(1)), float(acc.group(2))
float_ms = traced["serve-float"]["experiments.model_load_ms"]["value"]
ftpm_ms = traced["serve-int8"]["ftpm.load_ms"]["value"]
float_rps = lanes["serve-float"]["median"]["ops_per_s"]
int8_rps = lanes["serve-int8"]["median"]["ops_per_s"]
write("BENCH_quant.json", "ftpim.bench.quant/v3",
      "The int8 lane against the float lane. accuracy: ftpim export's test-split top-1 of "
      "perfbench's prepared model. cold_start: each loader from its own lane's traced perfbench "
      "setup spans (experiments.model_load_ms on serve-float, ftpm.load_ms on serve-int8). "
      "throughput: the two lanes' median ops_per_s from BENCH_serve.json.",
      cmds(*untraced, "serve-float-traced", "serve-int8-traced", "build", "export"),
      {"accuracy": {"model": m.group(1), "preset": m.group(2), "dataset": m.group(3),
                    "float_top1_pct": float_acc, "int8_top1_pct": int8_acc,
                    "delta_pp": round(int8_acc - float_acc, 2)},
       "cold_start": {"float_model_load_ms": float_ms, "ftpm_load_ms": ftpm_ms,
                      "speedup": round(float_ms / ftpm_ms, 2)},
       "throughput": {"float_ops_per_s": float_rps, "int8_ops_per_s": int8_rps,
                      "int8_over_float": round(int8_rps / float_rps, 3)}})


def paired(group, pairs, ref_key):
    return [{"name": name, "workload": workload, "ns_per_op": ns(group, name), ref_key + "_name": ref,
             ref_key + "_ns_per_op": ns(group, ref), "speedup": ratio(group, ref, name)}
            for name, ref, workload in pairs]


ROUNDS = ("ns_per_op is the median over the interleaved rounds and speedup the median of the "
          "per-round ratios.")


gemm = paired("gemm", [
    ("BenchmarkGemm256Serial", "BenchmarkGemmRef256Serial", "256^3 A*B"),
    ("BenchmarkGemmTA256Serial", "BenchmarkGemmTARef256Serial", "256^3 A^T*B (weight gradient)"),
    ("BenchmarkGemmTB256Serial", "BenchmarkGemmTBRef256Serial", "256^3 A*B^T (input gradient)"),
], "ref")
gemm.append({"name": "BenchmarkMatMul64", "workload": "64^3 A*B via MatMulInto",
             "ns_per_op": ns("gemm", "BenchmarkMatMul64")})
write("BENCH_gemm.json", "ftpim.bench.gemm/v2",
      "Serial (workers=1) GEMM kernels. Each cache-blocked kernel is paired with its "
      "pre-blocking reference (a bitwise test oracle); speedup is the reference's time over "
      "the kernel's. " + ROUNDS,
      cmds("gemm.1"), {"rounds": len(gotest["gemm"]), "benchmarks": gemm})

CONV = [
    ("BenchmarkConvFwdFused32", "BenchmarkConvFwdRef32", "n=16 c=16 32x32 outC=16 3x3 s1 p1, forward"),
    ("BenchmarkConvBwdFused32", "BenchmarkConvBwdRef32", "n=16 c=16 32x32 outC=16 3x3 s1 p1, backward"),
    ("BenchmarkConvBwdFusedSparse32", "BenchmarkConvBwdRefSparse32",
     "n=16 c=16 32x32 outC=16 3x3 s1 p1, backward, 60% of dY zero"),
    ("BenchmarkConvFwdFused12", "BenchmarkConvFwdRef12", "n=32 c=4 12x12 outC=4 3x3 s1 p1, forward"),
    ("BenchmarkConvBwdFused12", "BenchmarkConvBwdRef12", "n=32 c=4 12x12 outC=4 3x3 s1 p1, backward"),
    ("BenchmarkConvBwdFusedDeep", "BenchmarkConvBwdRefDeep", "n=16 c=64 8x8 outC=64 3x3 s1 p1, backward"),
    ("BenchmarkConvFwdFused1x1", "BenchmarkConvFwdRef1x1", "n=16 c=32 16x16 outC=32 1x1 s1 p0, forward"),
    ("BenchmarkConvBwdFused1x1", "BenchmarkConvBwdRef1x1", "n=16 c=32 16x16 outC=32 1x1 s1 p0, backward"),
]
write("BENCH_conv.json", "ftpim.bench.conv/v2",
      "Serial implicit-GEMM convolution (fused patch packing into batched panel GEMMs) against "
      "the materialized Im2Col+GEMM composition it replaced, which stays in-tree as the bitwise "
      "test oracle; speedup is the reference's time over the fused path's. " + ROUNDS,
      cmds("conv.1"), {"rounds": len(gotest["conv"]), "benchmarks": paired("conv", CONV, "ref")})

PARALLEL = [
    ("BenchmarkEvalDefectParallel", "EvalDefect, quick-preset ResNet, 8 runs at Psa 0.02"),
    ("BenchmarkEvalDefectSweepParallel", "EvalDefectSweep over the quick preset's test rates"),
    ("BenchmarkMatMulParallel", "256^3 GEMM, row-sharded"),
    ("BenchmarkConvForwardParallel", "ResNet-20 (width 0.25) inference, batch 32, sharded conv"),
    ("BenchmarkOneShotFTParallel", "OneShotFT at Psa^T 0.1, repro ResNet-20 (width 0.25), one epoch of "
     "320 synthetic images in 10 steps of 32, then the BN recalibration"),
]
par = []
for name, workload in PARALLEL:
    counts = sorted(int(b.rsplit("=", 1)[1]) for b in gotest["parallel"][0] if b.startswith(name + "/workers="))
    if 1 not in counts or len(counts) < 2:
        fail(f"{name}: the parallel go test output lacks workers=1 or a parallel count")
    sub = {w: f"{name}/workers={w}" for w in counts}
    par.append({"name": name, "workload": workload,
                "ns_per_op": {f"workers={w}": ns("parallel", sub[w]) for w in counts},
                "speedup_vs_workers_1": {f"workers={w}": ratio("parallel", sub[1], sub[w]) for w in counts[1:]}})
coldrounds = len(names("allq.w1.*"))
walls = {w: [float(out(f"allq.w{w}.{r}")) for r in range(1, coldrounds + 1)] for w in (1, 2)}
cold = {"workload": "ftpim all -preset quick from an empty model cache: every table and figure",
        "rounds": coldrounds, "wall_s": {f"workers={w}": walls[w] for w in walls},
        "median_s": {f"workers={w}": round(statistics.median(walls[w]), 3) for w in walls},
        "speedup_vs_workers_1": {"workers=2": round(statistics.median(a / b for a, b in zip(walls[1], walls[2])), 3)}}
write("BENCH_parallel.json", "ftpim.bench.parallel/v2",
      "Serial (workers=1) against worker-pool runs of the Monte-Carlo defect-eval protocol, "
      "one-shot FT retraining and the sharded kernels, and the wall time of a cold quick "
      "regeneration (cold_regeneration, every round's value in wall_s). Every worker count "
      "gives bit-identical results; counts above host.nproc are oversubscribed. " + ROUNDS,
      cmds("parallel.1", "allq.w1.1", "allq.w2.1"),
      {"rounds": len(gotest["parallel"]), "benchmarks": par, "cold_regeneration": cold})
EOF

mv "$tmp"/out/BENCH_*.json results/
echo "wrote $(ls results/BENCH_*.json | tr '\n' ' ')" >&2
