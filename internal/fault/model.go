// Package fault implements weight-level ReRAM fault scenarios.
//
// The paper's model — and this package's default Scenario — is the
// independent stuck-at distribution: every weight cell fails with
// probability Psa, splitting into stuck-off (SA0) and stuck-on (SA1)
// faults at the empirically reported ratio 1.75 : 9.04 (Chen et al.,
// march-test RRAM defect modeling [23]).
//
// A stuck-off cell reads as minimum conductance — the weight drops to
// zero. A stuck-on cell reads as maximum conductance — under the
// differential two-cell mapping the weight is dragged to +wmax or
// −wmax depending on which cell of the pair sticks, so the sign is
// drawn uniformly. Because most faults are stuck-on, even small Psa
// scatters full-magnitude outliers through the weight tensor, which is
// what collapses the baseline models in Table I.
//
// Beyond the default, fault distributions are pluggable: the Scenario
// interface plus the Register/Parse registry let callers select
// alternative models by spec string — "transient" (fresh lesion per
// forward pass), "cluster" (row-burst spatially-correlated defects),
// "drop" (SA0-only transient drops, the injection half of drop-connect
// fault-tolerant training). See scenario.go and the DESIGN.md section
// "Fault scenarios and FT schemes".
package fault

import (
	"fmt"
	"math"

	"github.com/ftpim/ftpim/internal/tensor"
)

// Kind labels one stuck-at fault.
type Kind uint8

// Fault kinds.
const (
	SA0 Kind = iota // stuck-off: weight → 0
	SA1             // stuck-on: weight → ±wmax
)

func (k Kind) String() string {
	if k == SA0 {
		return "SA0"
	}
	return "SA1"
}

// Model fixes the SA0/SA1 split of the overall stuck-at rate.
//
// Deprecated-ish: Model survives as the parameter block of the
// stuck-at scenario family, but code outside this package should not
// build Model literals — use NewModel, ChenModel, Uniform, or a
// Scenario spec string instead (enforced by the repo-root API-guard
// test).
type Model struct {
	// Ratio0 and Ratio1 are the relative weights of SA0 and SA1.
	// Only their ratio matters; they are normalized internally.
	Ratio0, Ratio1 float64
}

// NewModel builds a stuck-at mix with the given SA0/SA1 relative
// weights. It is the only sanctioned way for code outside this package
// to construct a custom Model value.
func NewModel(ratio0, ratio1 float64) Model {
	return Model{Ratio0: ratio0, Ratio1: ratio1}
}

// ChenModel returns the fault mix measured by Chen et al. [23] and
// adopted by the paper: Psa0 : Psa1 = 1.75 : 9.04.
func ChenModel() Model { return Model{Ratio0: 1.75, Ratio1: 9.04} }

// IsZero reports whether m is the zero value, i.e. no model was
// chosen. Configuration structs (core.Config, core.DefectEval) resolve
// a zero model to ChenModel(); any explicitly set model — including a
// half-zero one like {Ratio0: 1, Ratio1: 0} — is used as given and
// must pass Validate.
func (m Model) IsZero() bool { return m == Model{} }

// Validate checks that an explicitly set (non-zero) model is usable:
// both ratios must be finite and non-negative, and their sum positive.
// A model with exactly one zero ratio is valid — it means all faults
// are of the other kind. Callers resolving defaults should check
// IsZero first; a zero model is "unset", not invalid.
func (m Model) Validate() error {
	if math.IsNaN(m.Ratio0) || math.IsNaN(m.Ratio1) ||
		math.IsInf(m.Ratio0, 0) || math.IsInf(m.Ratio1, 0) {
		return fmt.Errorf("fault: non-finite ratio in model %+v", m)
	}
	if m.Ratio0 < 0 || m.Ratio1 < 0 {
		return fmt.Errorf("fault: negative ratio in model %+v", m)
	}
	if m.Ratio0+m.Ratio1 <= 0 {
		return fmt.Errorf("fault: degenerate model %+v (ratios sum to zero)", m)
	}
	return nil
}

// Uniform returns a model with equal SA0/SA1 probability, used by
// ablations.
func Uniform() Model { return Model{Ratio0: 1, Ratio1: 1} }

// P1 returns the conditional probability that a fault is stuck-on.
func (m Model) P1() float64 {
	s := m.Ratio0 + m.Ratio1
	if s <= 0 {
		panic(fmt.Sprintf("fault: degenerate model %+v", m))
	}
	return m.Ratio1 / s
}

// Split decomposes a total stuck-at rate into (psa0, psa1).
func (m Model) Split(psa float64) (psa0, psa1 float64) {
	p1 := m.P1()
	return psa * (1 - p1), psa * p1
}

// entry records one applied fault for undo.
type entry struct {
	idx int32
	old float32
}

// Lesion is the undoable record of one fault-injection pass over a set
// of weight tensors. Undo restores the exact pre-injection weights.
type Lesion struct {
	tensors []*tensor.Tensor
	undo    [][]entry
	nSA0    int
	nSA1    int
	total   int  // total weight elements covered
	spent   bool // Undo has run; the record may be recycled
}

// Counts returns the number of injected SA0 and SA1 faults.
func (l *Lesion) Counts() (sa0, sa1 int) { return l.nSA0, l.nSA1 }

// Rate returns the realized fault fraction over the covered weights.
func (l *Lesion) Rate() float64 {
	if l.total == 0 {
		return 0
	}
	return float64(l.nSA0+l.nSA1) / float64(l.total)
}

// Undo restores every faulted weight to its original value. Safe to
// call exactly once; an immediate second call is a no-op. An undone
// lesion may be recycled by the next Inject on the same injector, so
// callers must not retain it past that point.
func (l *Lesion) Undo() {
	for ti, t := range l.tensors {
		d := t.Data()
		es := l.undo[ti]
		// Reverse order so double-faulted cells restore correctly.
		for i := len(es) - 1; i >= 0; i-- {
			d[es[i].idx] = es[i].old
		}
		l.undo[ti] = es[:0]
	}
	l.spent = true
}

// recycleLesion returns prev reset over ts when prev is an undone
// record that may be reused (the steady-state inject→eval→undo loop),
// or nil when the caller must allocate a fresh one (overlapping live
// lesions).
func recycleLesion(prev *Lesion, ts []*tensor.Tensor) *Lesion {
	if prev == nil || !prev.spent {
		return nil
	}
	prev.tensors = ts
	prev.nSA0, prev.nSA1, prev.total = 0, 0, 0
	prev.spent = false
	for len(prev.undo) < len(ts) {
		prev.undo = append(prev.undo, nil)
	}
	prev.undo = prev.undo[:len(ts)]
	return prev
}

// newLesion allocates a fresh lesion record over ts.
func newLesion(ts []*tensor.Tensor) *Lesion {
	return &Lesion{tensors: ts, undo: make([][]entry, len(ts))}
}

// StuckAtInjector draws independent stuck-at faults over a set of
// weight tensors. It is the Injector of the "chen", "transient", and
// "drop" scenarios.
//
// Each tensor uses its own symmetric range [−wmax, +wmax] with
// wmax = max|w| at injection time, mirroring per-layer crossbar scaling
// (every layer's weights are programmed with their own conductance
// scale, so a stuck-on cell saturates at that layer's maximum).
// A StuckAtInjector is not safe for concurrent use: it recycles one
// lesion record and one RNG across calls (see the Injector reuse
// contract). The parallel evaluation protocol in internal/core gives
// every worker its own injector.
type StuckAtInjector struct {
	Model   Model
	Tensors []*tensor.Tensor

	scratch *Lesion     // recycled once the caller has undone it
	runRNG  *tensor.RNG // recycled per-run stream for InjectRun
}

// NewInjector builds a stuck-at injector over the given weight tensors.
func NewInjector(m Model, tensors []*tensor.Tensor) *StuckAtInjector {
	return &StuckAtInjector{Model: m, Tensors: tensors}
}

// Inject applies stuck-at faults with total rate psa, drawing from
// rng, and returns the lesion for undo. Every weight element fails
// independently with probability psa (exact Bernoulli process — no
// approximation), split between SA0/SA1 by the model.
func (inj *StuckAtInjector) Inject(rng *tensor.RNG, psa float64) *Lesion {
	if psa < 0 || psa > 1 {
		panic(fmt.Sprintf("fault: psa %v out of [0,1]", psa))
	}
	l := recycleLesion(inj.scratch, inj.Tensors)
	if l == nil {
		l = newLesion(inj.Tensors)
		inj.scratch = l
	}
	if psa == 0 {
		return l
	}
	p1 := inj.Model.P1()
	for ti, t := range inj.Tensors {
		d := t.Data()
		l.total += len(d)
		wmax := t.MaxAbs()
		for i := range d {
			if rng.Float64() >= psa {
				continue
			}
			l.undo[ti] = append(l.undo[ti], entry{idx: int32(i), old: d[i]})
			if rng.Float64() < p1 { // stuck-on
				if rng.Uint64()%2 == 0 {
					d[i] = wmax
				} else {
					d[i] = -wmax
				}
				l.nSA1++
			} else { // stuck-off
				d[i] = 0
				l.nSA0++
			}
		}
	}
	return l
}

// RunRNG derives the canonical fault-sampling stream for Monte-Carlo
// run `run` of a protocol rooted at seed. The stream depends only on
// (seed, run) — not on which goroutine draws it or how many runs came
// before — which is what lets the parallel evaluation protocol in
// internal/core reproduce the serial path bit for bit at any worker
// count.
func RunRNG(seed uint64, run int) *tensor.RNG {
	return tensor.NewRNG(seed).StreamN("defect-run", run)
}

// InjectRun applies one Monte-Carlo injection using the canonical
// per-run stream (see RunRNG). Serial and parallel callers construct
// identical lesions for the same (seed, run, psa). The stream is drawn
// by reseeding a recycled RNG, which is bit-equivalent to RunRNG but
// allocation-free in the steady state.
func (inj *StuckAtInjector) InjectRun(seed uint64, run int, psa float64) *Lesion {
	if inj.runRNG == nil {
		inj.runRNG = tensor.NewRNG(0)
	}
	inj.runRNG.Reseed(tensor.StreamSeedN(seed, "defect-run", run))
	return inj.Inject(inj.runRNG, psa)
}

// InjectStep applies the per-inference injection of forward pass
// `step` within Monte-Carlo run `run` — the transient-scenario draw.
// The stream depends only on (seed, run, step), per the positional RNG
// contract, and is drawn allocation-free off the recycled RNG.
func (inj *StuckAtInjector) InjectStep(seed uint64, run, step int, psa float64) *Lesion {
	if inj.runRNG == nil {
		inj.runRNG = tensor.NewRNG(0)
	}
	inj.runRNG.Reseed(stepSeed(seed, run, step))
	return inj.Inject(inj.runRNG, psa)
}
