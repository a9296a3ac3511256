package fault

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/ftpim/ftpim/internal/tensor"
)

// Scenario is one fault distribution over crossbar-mapped weight
// tensors. The engine never hard-codes a distribution: evaluation
// (core.DefectEval), fault-tolerant training (core.Config), the CLI
// (-fault) and the HTTP API (the "scenario" request field) all select a
// Scenario, by value or by spec string through Parse.
//
// A Scenario is an immutable description; all mutable injection state
// lives in the Injector it constructs, so one Scenario value may be
// shared by any number of workers.
type Scenario interface {
	// Spec returns the canonical spec string of the scenario, e.g.
	// "chen:r0=1.75,r1=9.04". Parse(s.Spec()) reconstructs an
	// equivalent scenario (spec round-trip is pinned by tests).
	Spec() string

	// Validate reports whether the scenario's parameters are usable.
	// Parse validates before returning; programmatically constructed
	// scenarios are validated by core.Normalize.
	Validate() error

	// NewInjector binds the scenario to a set of weight tensors,
	// returning the per-worker injection state. Each evaluation worker
	// (and each pooled clone) gets its own injector.
	NewInjector(ts []*tensor.Tensor) Injector

	// DrawMap samples one persistent defect pattern at per-cell rate
	// psa — the "manufactured device" view of the scenario, used by
	// training-time injection and the mass-production fleet flow. For
	// transient scenarios the map is one momentary snapshot.
	DrawMap(rng *tensor.RNG, ts []*tensor.Tensor, psa float64) *DeviceMap

	// Transient reports whether lesions are redrawn per forward pass
	// (per evaluation batch, per training mini-batch) instead of held
	// fixed for a whole Monte-Carlo run or epoch.
	Transient() bool
}

// Injector draws and applies lesions of one Scenario over one fixed set
// of weight tensors.
//
// Reuse contract: an injector recycles ONE lesion record. The *Lesion
// returned by an Inject* call is owned by the injector; the caller runs
// the inject → evaluate → Undo cycle and must not retain the lesion
// past the next Inject* call, which may recycle the undone record in
// place. This is what keeps the warm defect-evaluation loop within its
// 2-allocation budget (see the root alloc_test.go suite).
//
// Positional RNG contract: the lesion for (seed, run) — and, for
// transient scenarios, (seed, run, step) — depends only on those
// coordinates, never on which goroutine draws it or how many draws came
// before. Serial and parallel evaluation therefore construct identical
// lesions at any worker count.
//
// An Injector is not safe for concurrent use; the parallel protocol in
// internal/core gives every worker its own injector over its own clone.
type Injector interface {
	// InjectRun applies the lesion of Monte-Carlo run (seed, run) at
	// rate psa and returns it for undo.
	InjectRun(seed uint64, run int, psa float64) *Lesion

	// InjectStep applies the lesion of forward pass step within run
	// (seed, run, step) at rate psa — the per-inference draw of
	// transient scenarios. Persistent scenarios implement it too (the
	// position is well-defined), but the engine only calls it when
	// Scenario.Transient() is true.
	InjectStep(seed uint64, run, step int, psa float64) *Lesion
}

// stepSeed derives the positional stream seed of forward pass `step`
// within Monte-Carlo run `run`: the run stream (RunRNG) re-keyed by the
// inference index. This is the RNG positioning rule every transient
// injector must follow so that per-batch draws stay bit-identical at
// any worker count.
func stepSeed(seed uint64, run, step int) uint64 {
	return tensor.StreamSeedN(tensor.StreamSeedN(seed, "defect-run", run), "inference", step)
}

// Builder constructs a Scenario from the key=value parameters of a spec
// string. Every parameter the builder understands must be deleted from
// params; Parse rejects specs with leftover (unknown) keys.
type Builder func(params map[string]string) (Scenario, error)

var (
	registryMu sync.RWMutex
	registry   = map[string]Builder{}
)

// Register adds a scenario builder under the given spec name. It
// panics on an empty or duplicate name — registration happens in
// package init functions, where failing loudly is the only useful
// behavior.
func Register(name string, build Builder) {
	if name == "" || strings.ContainsAny(name, ":,= \t\n") {
		panic(fmt.Sprintf("fault: invalid scenario name %q", name))
	}
	if build == nil {
		panic("fault: nil scenario builder")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("fault: scenario %q registered twice", name))
	}
	registry[name] = build
}

// Names returns the registered scenario names, sorted.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Parse resolves a scenario spec string of the form
//
//	name[:key=value,key=value,...]
//
// against the registry, e.g. "chen", "chen:r0=1,r1=1", "transient",
// "cluster:len=8", "drop". The returned scenario has been validated.
// Errors name the offending token and list the registered scenarios,
// so a CLI or API caller can fix the spec without reading source.
func Parse(spec string) (Scenario, error) {
	name, rest, hasParams := strings.Cut(spec, ":")
	name = strings.TrimSpace(name)
	registryMu.RLock()
	build, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("fault: unknown scenario %q (registered: %s; spec syntax: name[:key=value,...])",
			name, strings.Join(Names(), ", "))
	}
	params := map[string]string{}
	if hasParams {
		if strings.TrimSpace(rest) == "" {
			return nil, fmt.Errorf("fault: scenario %q: empty parameter list after ':'", name)
		}
		for _, kv := range strings.Split(rest, ",") {
			k, v, found := strings.Cut(kv, "=")
			k, v = strings.TrimSpace(k), strings.TrimSpace(v)
			if !found || k == "" || v == "" {
				return nil, fmt.Errorf("fault: scenario %q: malformed parameter %q (want key=value)", name, kv)
			}
			if _, dup := params[k]; dup {
				return nil, fmt.Errorf("fault: scenario %q: duplicate parameter %q", name, k)
			}
			params[k] = v
		}
	}
	sc, err := build(params)
	if err != nil {
		return nil, fmt.Errorf("fault: scenario %q: %w", name, err)
	}
	if len(params) > 0 {
		keys := make([]string, 0, len(params))
		for k := range params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return nil, fmt.Errorf("fault: scenario %q: unknown parameter(s) %s", name, strings.Join(keys, ", "))
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// MustParse is Parse for specs known valid at compile time; it panics
// on error.
func MustParse(spec string) Scenario {
	sc, err := Parse(spec)
	if err != nil {
		panic(err)
	}
	return sc
}

// Default returns the scenario the engine uses when none is selected:
// the paper's Chen-ratio stuck-at distribution.
func Default() Scenario { return Chen() }

// popFloat consumes params[key] as a float64, or returns def when the
// key is absent. Used by scenario builders.
func popFloat(params map[string]string, key string, def float64) (float64, error) {
	v, ok := params[key]
	if !ok {
		return def, nil
	}
	delete(params, key)
	var f float64
	if _, err := fmt.Sscanf(v, "%g", &f); err != nil {
		return 0, fmt.Errorf("parameter %s=%q is not a number", key, v)
	}
	return f, nil
}

// popInt consumes params[key] as an int, or returns def when absent.
func popInt(params map[string]string, key string, def int) (int, error) {
	v, ok := params[key]
	if !ok {
		return def, nil
	}
	delete(params, key)
	var n int
	if _, err := fmt.Sscanf(v, "%d", &n); err != nil {
		return 0, fmt.Errorf("parameter %s=%q is not an integer", key, v)
	}
	return n, nil
}
