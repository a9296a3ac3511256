package main

import (
	"context"
	"encoding/json"
	"math/rand/v2"
	"time"

	"github.com/ftpim/ftpim/internal/core"
	"github.com/ftpim/ftpim/internal/data"
	"github.com/ftpim/ftpim/internal/experiments"
	"github.com/ftpim/ftpim/internal/fault"
	"github.com/ftpim/ftpim/internal/ftpm"
	"github.com/ftpim/ftpim/internal/metrics"
	"github.com/ftpim/ftpim/internal/nn"
	"github.com/ftpim/ftpim/internal/optim"
	"github.com/ftpim/ftpim/internal/serve"
	"github.com/ftpim/ftpim/internal/tensor"
)

// probeReps is how many timed repetitions each probe takes the median
// of, after one untimed warm-up.
const probeReps = 15

// probeLayers derives the per-layer metrics of a traced pass. Setup
// spans give the load and generation times; every other metric replays
// the calls the workload makes into one module, in the workload's lane
// and at its batch, each repetition in its own span. The same names are
// reported on every workload.
func probeLayers(rc *runCtx, tr *tracer, p *pass) map[string]metric {
	out := map[string]metric{}
	put := func(name, unit string, v float64) { out[name] = metric{v, unit} }
	root := tr.begin(0, "probes")
	defer tr.end(root)
	rep := func(name string, f func()) time.Duration { return medianOf(tr, root, name, f) }

	// data, experiments, ftpm: setup spans where the workload made the
	// call, replays where it did not.
	put("data.generate_ms", "ms", ms(medianDur(tr.durations("data.Env.Dataset"))))
	load := tr.durations("experiments.Env.Pretrained")
	for len(load) < probeReps {
		env := rc.model.newEnv(rc.nproc)
		env.Dataset(dataset) // generated apart: the span covers the decode only
		load = append(load, tr.timed(root, "experiments.Env.Pretrained", func() {
			env.Pretrained(context.Background(), dataset)
		}))
	}
	put("experiments.model_load_ms", "ms", ms(medianDur(load)))
	fl := tr.durations("ftpm.Load")
	if len(fl) == 0 {
		fl = []time.Duration{rep("ftpm.Load", func() {
			if m, err := ftpm.Load(rc.model.ftpmPath); err == nil {
				m.Close()
			}
		})}
	}
	put("ftpm.load_ms", "ms", ms(medianDur(fl)))

	s := p.env.Scale
	loader := data.NewLoader(p.train, s.Batch, s.Aug, true, tensor.NewRNG(rc.seed("probe.loader", 0)))
	loader.Epoch()
	put("data.batch_us", "us", us(rep("data.Loader.Next", func() {
		if x, _ := loader.Next(); x == nil {
			loader.Epoch()
			loader.Next()
		}
	})))

	// fault: the sweep's injections, and the FT phase's per-batch lesion.
	clone := p.float.Clone()
	weights := core.WeightTensors(clone)
	dcfg := p.env.DefectEval()
	dcfg.Seed = rc.seed("sweep", 0)
	inj := fault.Default().NewInjector(weights)
	var injects []time.Duration
	stuck := 0
	for i, rate := range experiments.PaperTestRates {
		for run := 0; rate > 0 && run < s.DefectRuns; run++ {
			injects = append(injects, tr.timed(root, "fault.InjectRun+Undo", func() {
				l := inj.InjectRun(dcfg.RateSeed(i), run, rate)
				sa0, sa1 := l.Counts()
				stuck += sa0 + sa1
				l.Undo()
			}))
		}
	}
	put("fault.inject_us", "us", us(medianDur(injects)))
	put("fault.stuck_cells", "count", float64(stuck))
	steps := loader.Steps()
	frng := tensor.NewRNG(rc.seed("ft", 0)).Stream("train-faults")
	epoch := 0
	put("fault.train_lesion_us", "us", us(rep("fault.DrawMap+Apply+Undo", func() {
		dm := fault.Default().DrawMap(frng.StreamN("epoch", epoch), weights, ftRate)
		for b := 0; b < steps; b++ {
			dm.Apply(weights).Undo()
		}
		epoch++
	}))/float64(steps))

	opt := optim.NewSGD(clone.Params(), s.FTLR, s.Momentum, s.WeightDecay)
	put("optim.step_us", "us", us(rep("optim.SGD.Step", opt.Step)))

	// metrics and core, in the workload's lane.
	var lane metrics.Forwarder = p.float.Clone()
	if p.quant != nil {
		lane = p.quant.Clone()
	}
	put("metrics.evaluate_ms", "ms", ms(rep("metrics.Evaluate", func() { metrics.Evaluate(lane, p.test, 128) })))
	put("core.worker_speedup", "x", workerSpeedup(rc, tr, root, p))

	c, h, w := p.test.Dims()
	flops, convs, hw := geometry(p.float, h, w)
	probeNN(rc, tr, root, p, put, flops, c)
	probeTensor(tr, root, p.batch, convs, hw, put)

	req, _ := json.Marshal(serve.InferRequest{Image: make([]float32, c*h*w)})
	resp := serve.InferResponse{Scores: make([]float32, p.test.Classes), Batch: 1}
	put("serve.codec_us", "us", us(rep("serve.codec", func() {
		var r serve.InferRequest
		json.Unmarshal(req, &r)
		json.Marshal(resp)
	})))
	return out
}

// medianOf runs f once untimed, then probeReps times each in a span
// named name under parent, and returns the median duration.
func medianOf(tr *tracer, parent int, name string, f func()) time.Duration {
	f()
	ds := make([]time.Duration, probeReps)
	for i := range ds {
		ds[i] = tr.timed(parent, name, f)
	}
	return medianDur(ds)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// workerSpeedup times one rate of the sweep at workers=1 and at every
// core; the two summaries must match bit for bit.
func workerSpeedup(rc *runCtx, tr *tracer, root int, p *pass) float64 {
	cfg := p.env.DefectEval()
	cfg.Seed = rc.seed("sweep", 0)
	rates := experiments.PaperTestRates[6:7]
	net := p.float.Clone()
	var serial, par []metrics.Summary
	cfg.Workers = 1
	d1 := tr.timed(root, "core.EvalDefectSweep.workers=1", func() {
		serial, _ = core.EvalDefectSweep(context.Background(), net, p.test, rates, cfg)
	})
	cfg.Workers = rc.nproc
	dn := tr.timed(root, "core.EvalDefectSweep.workers=nproc", func() {
		par, _ = core.EvalDefectSweep(context.Background(), net, p.test, rates, cfg)
	})
	rc.rep.check(len(serial) == 1 && equalSummaries(serial, par), "sweep subset differs between 1 and %d workers", rc.nproc)
	return d1.Seconds() / dn.Seconds()
}

// probeNN walks the top-level layers stage by stage, the loop
// Sequential.Forward and Backward run: inference forward in the
// workload's lane at its batch, and on the float model a training
// forward and backward at the FT batch.
func probeNN(rc *runCtx, tr *tracer, root int, p *pass, put func(string, string, float64), flops []float64, c int) {
	_, h, w := p.test.Dims()
	stride := c * h * w
	batchOf := func(ds *data.Dataset, n int) (*tensor.Tensor, []int) {
		var x tensor.Tensor
		buf := make([]float32, n*stride)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = ds.Example(i%ds.N(), buf[i*stride:])
		}
		x.SetView(buf, n, c, h, w)
		return &x, labels
	}

	// stage runs stage si's top-level layers in inference mode.
	var stage func(si int, x *tensor.Tensor) *tensor.Tensor
	if p.quant != nil {
		q := p.quant.Clone()
		ranges := quantStages(q)
		stage = func(si int, x *tensor.Tensor) *tensor.Tensor {
			for _, l := range q.Layers[ranges[si][0]:ranges[si][1]] {
				x = l.Forward(x)
			}
			return x
		}
	} else {
		net := p.float.Clone()
		ranges := floatStages(net)
		stage = func(si int, x *tensor.Tensor) *tensor.Tensor {
			for _, l := range net.Body.Layers[ranges[si][0]:ranges[si][1]] {
				x = l.Forward(x, false)
			}
			return x
		}
	}
	fwd := make([][]time.Duration, len(stageNames))
	x, _ := batchOf(p.test, p.batch)
	for it := 0; it <= probeReps; it++ { // iteration 0 warms up
		y := x
		for si := range stageNames {
			d := tr.timed(root, "nn.forward."+stageNames[si], func() { y = stage(si, y) })
			if it > 0 {
				fwd[si] = append(fwd[si], d)
			}
		}
	}
	for si, name := range stageNames {
		d := medianDur(fwd[si])
		put("nn.fwd_ms."+name, "ms", ms(d))
		put("nn.fwd_gflops."+name, "GFLOP/s", flops[si]*float64(p.batch)/d.Seconds()/1e9)
	}

	net := p.float.Clone()
	ranges := floatStages(net)
	ls := net.Body.Layers
	xt, labels := batchOf(p.train, p.env.Scale.Batch)
	var lossWS tensor.Workspace
	trainFwd := make([][]time.Duration, len(stageNames))
	bwd := make([][]time.Duration, len(stageNames))
	for it := 0; it <= probeReps; it++ {
		net.ZeroGrad()
		y := xt
		for si, r := range ranges {
			d := tr.timed(root, "nn.train_forward."+stageNames[si], func() {
				for _, l := range ls[r[0]:r[1]] {
					y = l.Forward(y, true)
				}
			})
			if it > 0 {
				trainFwd[si] = append(trainFwd[si], d)
			}
		}
		_, g := nn.SoftmaxCrossEntropyWS(&lossWS, y, labels)
		for si := len(ranges) - 1; si >= 0; si-- {
			r := ranges[si]
			d := tr.timed(root, "nn.backward."+stageNames[si], func() {
				for i := r[1] - 1; i >= r[0]; i-- {
					g = ls[i].Backward(g)
				}
			})
			if it > 0 {
				bwd[si] = append(bwd[si], d)
			}
		}
	}
	for si, name := range stageNames {
		put("nn.train_fwd_ms."+name, "ms", ms(medianDur(trainFwd[si])))
		put("nn.bwd_ms."+name, "ms", ms(medianDur(bwd[si])))
	}
}

// probeTensor calls the conv kernels directly at each stage's repeated
// conv shape and the workload's batch: the float implicit-GEMM forward
// and backward, and the int8 GEMM QConv2D runs per sample. The 256³
// float GEMM is the ceiling of the active numerics tier.
func probeTensor(tr *tracer, root, batch int, convs []convShape, hw []int, put func(string, string, float64)) {
	rng := rand.New(rand.NewPCG(7, 7))
	randF := func(n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = float32(rng.NormFloat64())
		}
		return v
	}
	randS8 := func(n int) []int8 {
		v := make([]int8, n)
		for i := range v {
			v[i] = int8(rng.IntN(255) - 127)
		}
		return v
	}
	timeIt := func(name string, f func()) time.Duration { return medianOf(tr, root, name, f) }
	for si, cv := range convs {
		if cv.inC == 0 {
			continue // the head has no conv
		}
		name := stageNames[si]
		n, h := batch, hw[si]
		oh := tensor.ConvOutSize(h, cv.k, 1, cv.pad)
		k := cv.inC * cv.k * cv.k
		macs := float64(cv.outC * k * oh * oh)
		wd, src := randF(cv.outC*k), randF(n*cv.inC*h*h)
		dst, dY := make([]float32, n*cv.outC*oh*oh), randF(n*cv.outC*oh*oh)
		dX, dw := make([]float32, len(src)), make([]float32, n*cv.outC*k)
		d := timeIt("tensor.ConvGemmForward."+name, func() {
			tensor.ConvGemmForward(dst, wd, src, n, cv.inC, h, h, cv.outC, cv.k, cv.k, 1, cv.pad)
		})
		put("tensor.conv_fwd_gflops."+name, "GFLOP/s", 2*macs*float64(n)/d.Seconds()/1e9)
		d = timeIt("tensor.ConvGemmBackward."+name, func() {
			clear(dX)
			tensor.ConvGemmBackward(dX, dw, wd, src, dY, n, cv.inC, h, h, cv.outC, cv.k, cv.k, 1, cv.pad)
		})
		put("tensor.conv_bwd_gflops."+name, "GFLOP/s", 4*macs*float64(n)/d.Seconds()/1e9)
		wq, patches, acc := randS8(cv.outC*k), randS8(n*oh*oh*k), make([]int32, cv.outC*oh*oh)
		d = timeIt("tensor.GemmS8TB."+name, func() {
			for i := 0; i < n; i++ {
				tensor.GemmS8TB(acc, wq, patches[i*oh*oh*k:(i+1)*oh*oh*k], cv.outC, k, oh*oh)
			}
		})
		put("tensor.gemms8_gops."+name, "GOP/s", 2*macs*float64(n)/d.Seconds()/1e9)
	}
	a, b, c := randF(256*256), randF(256*256), make([]float32, 256*256)
	d := timeIt("tensor.Gemm256", func() { tensor.Gemm(c, a, b, 256, 256, 256) })
	put("tensor.gemm256_gflops", "GFLOP/s", 2*256*256*256/d.Seconds()/1e9)
}
