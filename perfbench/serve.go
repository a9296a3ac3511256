package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ftpim/ftpim/internal/core"
	"github.com/ftpim/ftpim/internal/data"
	"github.com/ftpim/ftpim/internal/ftpm"
	"github.com/ftpim/ftpim/internal/metrics"
	"github.com/ftpim/ftpim/internal/nn"
	"github.com/ftpim/ftpim/internal/serve"
	"github.com/ftpim/ftpim/internal/tensor"
)

// Serving phase rates, identical for both lanes so they compare
// directly.
const (
	lightRate = 200.0 // keeps micro-batches near 1
	busyRate  = 600.0 // a rate at which the mixed phase repeats
	// ladderStart is where the ladder begins; it climbs by ladderStep
	// until a step fails, then refines above the last passing step by
	// ladderFine.
	ladderStart = 1000.0
	ladderStep  = 1.10
	ladderFine  = 1.03
	// ladderMaxSteps caps the climb.
	ladderMaxSteps = 30
	// sampleEvery: the ladder and saturate phases verify every
	// sampleEvery-th response; the fixed-rate phases verify them all.
	sampleEvery = 4
	// satClients is the saturate phase's closed-loop client count:
	// enough to keep both executors on full batches, fewer than the
	// queue holds.
	satClients = 64
	// noiseStd is the per-pixel noise added to a test image to make
	// each request's image distinct.
	noiseStd = 0.1
	// Mixed phase: one /v1/defect-eval request per evalEvery, each one
	// rate x evalRuns Monte-Carlo runs with a fresh seed.
	evalEvery = time.Second
	evalRate  = 0.02
	evalRuns  = 4
)

// server is one serving configuration under test: the handler and an
// in-process copy of its model to verify responses against.
type server struct {
	h      http.Handler
	test   *data.Dataset
	verify metrics.Forwarder // lane model clone for verification
	float  *nn.Network       // float lane: defect-eval verification
	eval   core.DefectEval   // the server's defect-eval defaults
	nextID atomic.Int64      // request ids for trace spans
}

// Run structure: the light, busy and saturate phases run as short
// slices in rounds spread over the whole run. CPU speed on a shared
// host swings by up to 2x over seconds; latency pools every slice, so
// it averages the swings instead of sampling one stretch of them, and
// the saturation rate is the fastest slice's, since contention only
// ever slows a slice down. The gated latency is the light p50, most of
// which is the fixed batch window: under contention the busy p50 grew
// 2x between runs of one seed. Setup repetitions are spread over the
// rounds, and the peak resident set is taken over each round's setup
// and gated slices, after the previous round's garbage is released.
const (
	rounds      = 12 // each with one more setup: 13 setups in all
	ladderChunk = 2  // ladder steps after each round
)

// runServe is `ftpim serve` in-process: the float lane from the gob
// cache, or (quant) the int8 lane from the mmap'd FTPM export, with the
// server's default configuration. Traffic goes through
// Server.Handler(): an untimed warm-up, then rounds of light, busy and
// saturate slices, and the mixed phase (float only) after the middle
// round. The traced run adds the ladder, in chunks between rounds: its
// verdicts swing with host noise, so it is reported, not gated, and
// leaving it out of the untraced runs halves their length.
func runServe(rc *runCtx, tr *tracer, quant bool) (*pass, error) {
	p := &pass{}
	srv, model, err := setupServer(rc, tr, quant, p)
	if err != nil {
		return nil, err
	}
	defer srv.Drain()
	if model != nil {
		// The int8 planes alias the mapping: it must outlive the probes.
		p.release = func() { model.Close() }
	}
	s := &server{h: srv.Handler(), test: p.test, eval: p.env.DefectEval().Normalize()}
	if quant {
		p.quant = model.Net
		s.verify = model.Net.Clone()
		if p.float, err = p.env.Pretrained(context.Background(), dataset); err != nil { // float-only probes
			return nil, err
		}
	} else {
		s.verify = p.float.Clone()
		s.float = p.float
	}

	sec := time.Duration(rc.opt.seconds) * time.Second
	workStart := time.Now()
	s.openPhase(rc, tr, "warmup", 0, lightRate, time.Second, 1) // untimed, uncounted
	light := &pooled{name: "light", rate: lightRate}
	busy := &pooled{name: "busy", rate: busyRate}
	sat := &pooled{name: "saturate"}
	lad := &ladder{s: s, rc: rc, tr: tr, next: ladderStart}
	var mixed phaseStats
	var evalP50 float64
	for r := 0; r < rounds; r++ {
		releaseAndResetPeak()
		extra := &pass{}
		srv2, model2, err := setupServer(rc, tr, quant, extra)
		if err != nil {
			return nil, err
		}
		srv2.Drain()
		if model2 != nil {
			model2.Close()
		}
		p.setup = append(p.setup, extra.setup...)
		light.add(s.openPhase(rc, tr, "light", r, lightRate, sec/80, 1))
		busy.add(s.openPhase(rc, tr, "busy", r, busyRate, sec/50, 1))
		sat.add(s.saturate(rc, tr, r, sec/30))
		p.rssMiB = math.Max(p.rssMiB, peakRSSMiB())
		if r == rounds/2 && !quant {
			mixed, evalP50 = s.mixedPhase(rc, tr, sec*4/25)
		}
		for k := 0; tr != nil && k < ladderChunk && lad.step(); k++ {
		}
	}
	for tr != nil && lad.step() {
	}
	p.work = time.Since(workStart)

	phases := []phaseStats{light.stats(), busy.stats(), sat.stats()}
	if !quant {
		phases = append(phases, mixed)
	}
	for _, st := range append(phases, lad.steps...) {
		printPhase(rc.rep, st)
	}
	for _, st := range phases[:3] { // mixed accounted for itself
		account(rc.rep, st)
	}
	p.opsPerS = phases[2].Rate
	p.opMs = phases[0].P50ms
	p.batch = max(1, int(math.Round(phases[1].MeanBatch)))
	p.named = []namedMetric{
		{"infer_p50_ms.light", "ms", phases[0].P50ms},
		{"infer_p50_ms.busy", "ms", phases[1].P50ms},
	}
	if !quant {
		p.named = append(p.named,
			namedMetric{"infer_p50_ms.mixed", "ms", mixed.P50ms},
			namedMetric{"defect_eval_p50_ms.mixed", "ms", evalP50})
	}
	if tr != nil {
		p.named = append(p.named, namedMetric{"infer_max_rps", "req/s", lad.best})
	}
	p.named = append(p.named, namedMetric{"infer_sat_rps", "req/s", p.opsPerS})
	return p, nil
}

// setupServer is one timed setup: dataset generation, model load and
// server construction. It records the time in p.setup and fills p's
// data, environment and (float lane) model.
func setupServer(rc *runCtx, tr *tracer, quant bool, p *pass) (*serve.Server, *ftpm.Model, error) {
	root := tr.begin(0, "setup")
	defer tr.end(root)
	start := time.Now()
	p.env = rc.model.newEnv(rc.nproc)
	tr.timed(root, "data.Env.Dataset", func() { p.train, p.test = p.env.Dataset(dataset) })
	cfg := serve.Config{Eval: p.env.DefectEval()}
	var model *ftpm.Model
	var err error
	if quant {
		tr.timed(root, "ftpm.Load", func() { model, err = ftpm.Load(rc.model.ftpmPath) })
		if err != nil {
			return nil, nil, err
		}
		cfg.Quantized = model.Net
		cfg.ModelFormat = ftpm.FormatName
	} else {
		tr.timed(root, "experiments.Env.Pretrained", func() { p.float, err = p.env.Pretrained(context.Background(), dataset) })
		if err != nil {
			return nil, nil, err
		}
	}
	var srv *serve.Server
	tr.timed(root, "serve.New", func() { srv, err = serve.New(p.float, p.test, cfg) })
	if err != nil {
		if model != nil {
			model.Close()
		}
		return nil, nil, err
	}
	p.setup = append(p.setup, time.Since(start))
	return srv, model, nil
}

// account counts a phase's requests in fail_share and its wrong
// responses as failed output checks.
func account(rep *report, st phaseStats) {
	rep.count(st.Sent, st.Failed+st.Refused+st.Wrong)
	rep.wrongOutputs(st.Wrong, "wrong infer responses in phase "+st.Name)
}

func printPhase(rep *report, st phaseStats) {
	b, _ := json.Marshal(st)
	rep.printf("phase %s", b)
}

// slice is one measured stretch of a phase.
type slice struct {
	outs    []outcome
	wrong   []bool
	batches int // summed micro-batch sizes of correct responses
	dur     time.Duration
	health  string
}

// pooled accumulates a phase measured in slices.
type pooled struct {
	name string
	rate float64 // offered rate; 0 for the closed-loop saturate phase
	all  slice
	best float64 // highest per-slice completion rate
}

func (pl *pooled) add(sl slice) {
	ok := 0
	for i, o := range sl.outs {
		if o.status == http.StatusOK && !sl.wrong[i] {
			ok++
		}
	}
	pl.best = math.Max(pl.best, float64(ok)/sl.dur.Seconds())
	pl.all.outs = append(pl.all.outs, sl.outs...)
	pl.all.wrong = append(pl.all.wrong, sl.wrong...)
	pl.all.batches += sl.batches
	pl.all.dur += sl.dur
	if sl.health != "" {
		pl.all.health = sl.health
	}
}

// stats summarizes all slices; the closed-loop phase reports its
// fastest slice's completion rate as its rate.
func (pl *pooled) stats() phaseStats {
	st := summarize(pl.name, pl.rate, pl.all.dur, pl.all.outs, pl.all.wrong)
	if st.OK > 0 {
		st.MeanBatch = float64(pl.all.batches) / float64(st.OK)
	}
	if pl.rate == 0 {
		st.Rate = pl.best
	}
	st.Health = pl.all.health
	return st
}

// image is the request image for a per-request seed: a test image
// chosen by the seed plus seeded noise, so every request is distinct.
func (s *server) image(seed uint64) []float32 {
	rng := rand.New(rand.NewPCG(seed, 1))
	c, h, w := s.test.Dims()
	img := make([]float32, c*h*w)
	s.test.Example(rng.IntN(s.test.N()), img)
	for j := range img {
		img[j] += float32(rng.NormFloat64() * noiseStd)
	}
	return img
}

func (s *server) inferCall(img []float32) call {
	body, _ := json.Marshal(serve.InferRequest{Image: img})
	return call{path: "/v1/infer", body: body, req: int(s.nextID.Add(1))}
}

// inferRequests builds the n request images of a phase and their
// encoded calls, ahead of the phase.
func (s *server) inferRequests(rc *runCtx, phase string, n int) ([][]float32, []call) {
	imgs := make([][]float32, n)
	calls := make([]call, n)
	for i := range imgs {
		imgs[i] = s.image(rc.seed("images."+phase, i))
		calls[i] = s.inferCall(imgs[i])
	}
	return imgs, calls
}

// openPhase sends one slice of an open-loop Poisson infer phase at
// rate for dur, then verifies every verifyEvery-th response.
func (s *server) openPhase(rc *runCtx, tr *tracer, name string, part int, rate float64, dur time.Duration, verifyEvery int) slice {
	due := poissonSchedule(rc.seed("arrivals."+name, part), rate, dur)
	imgs, calls := s.inferRequests(rc, fmt.Sprintf("%s.%d", name, part), len(due))
	sp := tr.begin(0, "phase."+name)
	stop := s.pollHealth(tr, sp)
	outs := openLoop(s.h, due, calls, tr, sp, name)
	health := stop()
	tr.end(sp)
	wrong, batches := s.verifyInfer(func(i int) []float32 { return imgs[i] }, outs, verifyEvery)
	return slice{outs, wrong, batches, dur, health}
}

// verifyInfer decodes every successful response and checks every
// every-th one against the in-process forward pass of its image (img
// returns request i's image): same class, bit-equal scores. It returns
// which outcomes were wrong and the summed batch sizes of the others.
func (s *server) verifyInfer(img func(int) []float32, outs []outcome, every int) (wrong []bool, batches int) {
	wrong = make([]bool, len(outs))
	resps := make([]serve.InferResponse, len(outs))
	var check []int
	for i, o := range outs {
		if o.status != http.StatusOK {
			continue
		}
		if err := json.Unmarshal(o.body, &resps[i]); err != nil || resps[i].Batch < 1 {
			wrong[i] = true
			continue
		}
		batches += resps[i].Batch
		if i%every == 0 {
			check = append(check, i)
		}
	}
	c, h, w := s.test.Dims()
	stride := c * h * w
	const chunk = 128
	buf := make([]float32, chunk*stride)
	var x tensor.Tensor
	for lo := 0; lo < len(check); lo += chunk {
		hi := min(lo+chunk, len(check))
		for j, i := range check[lo:hi] {
			copy(buf[j*stride:], img(i))
		}
		x.SetView(buf[:(hi-lo)*stride], hi-lo, c, h, w)
		y := s.verify.Forward(&x, false)
		classes := y.Dim(1)
		for j, i := range check[lo:hi] {
			want := y.Data()[j*classes : (j+1)*classes]
			ok := len(resps[i].Scores) == classes && resps[i].Class == y.ArgMaxRow(j)
			for k := 0; ok && k < classes; k++ {
				ok = math.Float32bits(resps[i].Scores[k]) == math.Float32bits(want[k])
			}
			if !ok {
				wrong[i] = true
				batches -= resps[i].Batch
			}
		}
	}
	return wrong, batches
}

// mixedPhase is the busy infer schedule plus one defect-eval request
// per evalEvery. It returns the infer statistics and the median
// defect-eval latency from due time.
func (s *server) mixedPhase(rc *runCtx, tr *tracer, dur time.Duration) (phaseStats, float64) {
	due := poissonSchedule(rc.seed("arrivals.busy", 0), busyRate, dur)
	imgs, calls := s.inferRequests(rc, "mixed", len(due))
	type evalReq struct {
		at   time.Duration
		seed uint64
	}
	var evals []evalReq
	for at, k := evalEvery/2, 0; at < dur; at, k = at+evalEvery, k+1 {
		evals = append(evals, evalReq{at, rc.seed("defect-eval", k)})
	}
	// Merge the defect-eval requests into the schedule in due order.
	n := len(due)
	for _, e := range evals {
		seed := e.seed
		body, _ := json.Marshal(serve.DefectEvalRequest{Rates: []float64{evalRate}, Runs: evalRuns, Seed: &seed})
		due = append(due, e.at)
		calls = append(calls, call{path: "/v1/defect-eval", body: body, req: int(s.nextID.Add(1))})
	}
	order := make([]int, len(due))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return due[order[a]] < due[order[b]] })
	sdue, scalls := make([]time.Duration, len(due)), make([]call, len(due))
	for i, j := range order {
		sdue[i], scalls[i] = due[j], calls[j]
	}

	sp := tr.begin(0, "phase.mixed")
	stop := s.pollHealth(tr, sp)
	souts := openLoop(s.h, sdue, scalls, tr, sp, "mixed")
	health := stop()
	tr.end(sp)

	outs := make([]outcome, len(due))
	for i, j := range order {
		outs[j] = souts[i]
	}
	wrong, batches := s.verifyInfer(func(i int) []float32 { return imgs[i] }, outs[:n], 1)
	pl := &pooled{name: "mixed", rate: busyRate}
	pl.add(slice{outs[:n], wrong, batches, dur, health})
	st := pl.stats()
	account(rc.rep, st)

	var lat []float64
	for k, e := range evals {
		o := outs[n+k]
		if o.status != http.StatusOK {
			rc.rep.count(1, 1)
			rc.rep.printf("defect-eval %d: status %d", k, o.status)
			continue
		}
		rc.rep.check(bytes.Equal(o.body, s.directEval(e.seed)), "defect-eval %d: response differs from core.EvalDefectSweep", k)
		lat = append(lat, ms(o.latency()))
	}
	rc.rep.printf("defect-eval mixed: %d requests, latency from due time %v ms", len(evals), roundAll(lat))
	return st, median(lat)
}

// directEval is the response body /v1/defect-eval must produce for the
// mixed phase's request with the given seed, computed in-process.
func (s *server) directEval(seed uint64) []byte {
	cfg := s.eval
	cfg.Runs, cfg.Seed = evalRuns, seed
	rates := []float64{evalRate}
	sums, err := core.EvalDefectSweep(context.Background(), s.float, s.test, rates, cfg)
	if err != nil {
		return nil
	}
	b, _ := json.Marshal(serve.NewDefectEvalResponse(cfg.Seed, cfg.Runs, rates, sums))
	return append(b, '\n')
}

// ladder climbs from ladderStart by ladderStep until a step fails, then
// tries ladderFine increments above the last passing rate; if the start
// fails it descends by ladderStep until a step passes. best is the
// highest passing rate. Each step runs max(0.75 s, 1200 requests): its
// p99 has at least minTail samples beyond it, with room for the Poisson
// count to fall short of the mean. It verifies every sampleEvery-th
// response. Requests of passing steps count in
// fail_share; steps past the knee do not.
type ladder struct {
	s     *server
	rc    *runCtx
	tr    *tracer
	stage int     // ladderFirst, ladderClimb, ladderDescend, ladderRefine, ladderDone
	next  float64 // rate of the next step
	fail  float64 // lowest failing rate above best
	best  float64
	steps []phaseStats
}

const (
	ladderFirst = iota
	ladderClimb
	ladderDescend
	ladderRefine
	ladderDone
)

// step runs the next step and reports whether the ladder goes on.
func (l *ladder) step() bool {
	if l.stage == ladderDone || len(l.steps) >= ladderMaxSteps {
		return false
	}
	rate := l.next
	name := fmt.Sprintf("ladder%02d", len(l.steps))
	dur := time.Duration(math.Max(0.75, 1200/rate) * float64(time.Second))
	pl := &pooled{name: name, rate: rate}
	pl.add(l.s.openPhase(l.rc, l.tr, name, 0, rate, dur, sampleEvery))
	st := pl.stats()
	ok, why := stepPasses(st)
	st.Pass, st.Reason = &ok, why
	l.steps = append(l.steps, st)
	l.rc.rep.wrongOutputs(st.Wrong, "wrong infer responses in "+name)
	if ok {
		l.rc.rep.count(st.Sent, 0)
		l.best = math.Max(l.best, rate)
	}
	switch l.stage {
	case ladderFirst:
		if ok {
			l.stage, l.next = ladderClimb, rate*ladderStep
		} else {
			l.stage, l.next = ladderDescend, rate/ladderStep
		}
	case ladderClimb:
		if ok {
			l.next = rate * ladderStep
		} else {
			l.stage, l.fail, l.next = ladderRefine, rate, l.best*ladderFine
		}
	case ladderDescend:
		if ok {
			l.stage = ladderDone
		} else {
			l.next = rate / ladderStep
		}
	case ladderRefine:
		if ok {
			l.next = rate * ladderFine
		} else {
			l.stage = ladderDone
		}
	}
	if l.stage == ladderRefine && l.next >= l.fail {
		l.stage = ladderDone
	}
	return l.stage != ladderDone
}

// saturate drives the server closed-loop for one slice: satClients
// clients each send their next request as soon as the previous one
// returns, for dur. Each request carries a distinct image, generated
// by its client; every sampleEvery-th response is verified.
func (s *server) saturate(rc *runCtx, tr *tracer, round int, dur time.Duration) slice {
	const name = "saturate"
	seedName := fmt.Sprintf("images.%s.%d", name, round)
	sp := tr.begin(0, "phase."+name)
	stop := s.pollHealth(tr, sp)
	var next atomic.Int64
	type sent struct {
		i   int
		out outcome
	}
	per := make([][]sent, satClients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < dur {
				i := int(next.Add(1) - 1)
				cl := s.inferCall(s.image(rc.seed(seedName, i)))
				req := httptest.NewRequest(http.MethodPost, cl.path, bytes.NewReader(cl.body))
				rec := httptest.NewRecorder()
				o := outcome{due: time.Since(start)}
				o.sent = o.due
				id := tr.beginReq(sp, "serve.Handler/v1/infer", name, cl.req)
				s.h.ServeHTTP(rec, req)
				tr.end(id)
				o.done, o.status, o.body = time.Since(start), rec.Code, rec.Body.Bytes()
				per[c] = append(per[c], sent{i, o})
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	health := stop()
	tr.end(sp)

	var all []sent
	for _, ps := range per {
		all = append(all, ps...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].i < all[b].i })
	outs := make([]outcome, len(all))
	for k, a := range all {
		outs[k] = a.out
	}
	wrong, batches := s.verifyInfer(func(k int) []float32 { return s.image(rc.seed(seedName, all[k].i)) }, outs, sampleEvery)
	return slice{outs, wrong, batches, elapsed, health}
}

// pollHealth polls GET /v1/healthz every 10 ms during a traced phase
// and returns a stop function reporting mean queue depth and mean busy
// executors. Untraced phases are not polled.
func (s *server) pollHealth(tr *tracer, parent int) func() string {
	if tr == nil {
		return func() string { return "" }
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	var queue, busy, n float64
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
			}
			rec := httptest.NewRecorder()
			sp := tr.begin(parent, "serve.Handler/v1/healthz")
			s.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
			tr.end(sp)
			var hr serve.HealthResponse
			if json.Unmarshal(rec.Body.Bytes(), &hr) == nil {
				queue += float64(hr.Queue)
				busy += float64(hr.Executors - hr.IdleExecutors)
				n++
			}
		}
	}()
	return func() string {
		close(done)
		wg.Wait()
		if n == 0 {
			return ""
		}
		return fmt.Sprintf("healthz: mean queue depth %.2f, mean busy executors %.2f over %d polls", queue/n, busy/n, int(n))
	}
}

func roundAll(vs []float64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = math.Round(v*100) / 100
	}
	return out
}
