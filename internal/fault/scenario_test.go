package fault

import (
	"strings"
	"testing"

	"github.com/ftpim/ftpim/internal/tensor"
)

// builtinScenarios returns one instance of every registered scenario
// at its default parameters, keyed by canonical spec.
func builtinScenarios(t *testing.T) []Scenario {
	t.Helper()
	var scs []Scenario
	for _, name := range Names() {
		sc, err := Parse(name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		scs = append(scs, sc)
	}
	return scs
}

func TestRegistryNames(t *testing.T) {
	names := Names()
	want := []string{"chen", "cluster", "drop", "transient"}
	if len(names) < len(want) {
		t.Fatalf("Names() = %v, want at least %v", names, want)
	}
	set := map[string]bool{}
	for _, n := range names {
		set[n] = true
	}
	for _, n := range want {
		if !set[n] {
			t.Fatalf("built-in scenario %q not registered (have %v)", n, names)
		}
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	specs := []string{
		"chen", "chen:r0=1,r1=1", "chen:r1=2",
		"transient", "transient:r0=3,r1=4",
		"cluster", "cluster:len=4", "cluster:len=16,tile=64,r0=1,r1=0",
		"drop",
	}
	for _, spec := range specs {
		sc, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		canon := sc.Spec()
		sc2, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q) (canonical of %q): %v", canon, spec, err)
		}
		if sc2.Spec() != canon {
			t.Fatalf("spec %q: canonical form does not round-trip: %q -> %q", spec, canon, sc2.Spec())
		}
		if sc2.Transient() != sc.Transient() {
			t.Fatalf("spec %q: Transient() flipped across round-trip", spec)
		}
	}
}

func TestParseWhitespaceTolerant(t *testing.T) {
	a, err := Parse("cluster: len=4 , r0=1, r1=2")
	if err != nil {
		t.Fatal(err)
	}
	b := MustParse("cluster:len=4,r0=1,r1=2")
	if a.Spec() != b.Spec() {
		t.Fatalf("whitespace changed the scenario: %q vs %q", a.Spec(), b.Spec())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		spec string
		want string // substring of the error
	}{
		{"", "unknown scenario"},
		{"nope", "unknown scenario"},
		{"nope", "chen"}, // errors list the registered names
		{"chen:", "empty parameter list"},
		{"chen:r0", "malformed parameter"},
		{"chen:=1", "malformed parameter"},
		{"chen:r0=", "malformed parameter"},
		{"chen:r0=1,r0=2", "duplicate parameter"},
		{"chen:bogus=1", "unknown parameter"},
		{"chen:r0=abc", "not a number"},
		{"chen:r0=-1", "negative"},
		{"chen:r0=0,r1=0", ""}, // invalid model: any error is fine
		{"cluster:len=zzz", "not an integer"},
		{"cluster:len=0", "burst length"},
		{"cluster:tile=0", "tile width"},
		{"drop:r0=1", "unknown parameter"},
	}
	for _, tc := range cases {
		sc, err := Parse(tc.spec)
		if err == nil {
			t.Fatalf("Parse(%q) = %v, want error", tc.spec, sc.Spec())
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("Parse(%q) error %q does not mention %q", tc.spec, err, tc.want)
		}
	}
}

func TestDefaultIsChen(t *testing.T) {
	if got, want := Default().Spec(), Chen().Spec(); got != want {
		t.Fatalf("Default().Spec() = %q, want %q", got, want)
	}
	parsed := MustParse("chen")
	if parsed.Spec() != Default().Spec() {
		t.Fatalf("Parse(\"chen\") = %q, Default() = %q", parsed.Spec(), Default().Spec())
	}
	if Default().Transient() {
		t.Fatal("default scenario must be persistent")
	}
}

// TestScenarioInjectorMatchesDrawMap pins the scenario contract that a
// device map and an injected lesion drawn at the same RNG position
// fault the same cells the same way — the property that makes
// `ftpim device draw` profiles reproducible from sweep coordinates.
// The clustered scenario shares one draw routine between the two paths
// and must match exactly; the stuck-at family keeps two historical
// (golden-pinned) SA1 sign conventions, so there the positions, kinds,
// and magnitudes must agree while stuck-on signs may differ.
func TestScenarioInjectorMatchesDrawMap(t *testing.T) {
	const (
		seed = uint64(99)
		run  = 3
		psa  = 0.05
	)
	for _, sc := range builtinScenarios(t) {
		t.Run(sc.Spec(), func(t *testing.T) {
			r1, r2 := tensor.NewRNG(21), tensor.NewRNG(21)
			ts1 := randTensors(r1, 600, 37)
			ts2 := randTensors(r2, 600, 37)

			inj := sc.NewInjector(ts1)
			inj.InjectRun(seed, run, psa)

			dm := sc.DrawMap(RunRNG(seed, run), ts2, psa)
			dm.Apply(ts2)

			exact := sc.Spec() == MustParse("cluster").Spec()
			for i := range ts1 {
				a, b := ts1[i].Data(), ts2[i].Data()
				for j := range a {
					if a[j] == b[j] {
						continue
					}
					if !exact && a[j] == -b[j] && a[j] != 0 {
						continue // SA1 sign convention difference
					}
					t.Fatalf("tensor %d cell %d: injector wrote %v, device map wrote %v",
						i, j, a[j], b[j])
				}
			}
		})
	}
}

// TestScenarioInjectorsPositionIndependent pins the positional RNG
// contract: the lesion of (seed, run) — and (seed, run, step) — must
// not depend on what the injector drew before, which is exactly what
// lets parallel workers split runs arbitrarily.
func TestScenarioInjectorsPositionIndependent(t *testing.T) {
	const (
		seed = uint64(4242)
		psa  = 0.08
	)
	for _, sc := range builtinScenarios(t) {
		t.Run(sc.Spec(), func(t *testing.T) {
			r1, r2 := tensor.NewRNG(31), tensor.NewRNG(31)
			ts1 := randTensors(r1, 500, 81)
			ts2 := randTensors(r2, 500, 81)

			// Injector 1 walks runs 0..4 and keeps run 4's lesion.
			inj1 := sc.NewInjector(ts1)
			for run := 0; run < 4; run++ {
				inj1.InjectRun(seed, run, psa).Undo()
			}
			inj1.InjectRun(seed, 4, psa)

			// Injector 2 jumps straight to run 4.
			inj2 := sc.NewInjector(ts2)
			inj2.InjectRun(seed, 4, psa)

			for i := range ts1 {
				if !ts1[i].Equal(ts2[i]) {
					t.Fatalf("tensor %d: run-4 lesion depends on draw history", i)
				}
			}
		})
	}
}

func TestTransientStepPositionIndependent(t *testing.T) {
	const (
		seed = uint64(7)
		run  = 2
		psa  = 0.1
	)
	for _, spec := range []string{"transient", "drop", "cluster"} {
		t.Run(spec, func(t *testing.T) {
			sc := MustParse(spec)
			r1, r2 := tensor.NewRNG(41), tensor.NewRNG(41)
			ts1 := randTensors(r1, 700)
			ts2 := randTensors(r2, 700)

			inj1 := sc.NewInjector(ts1)
			for step := 0; step < 5; step++ {
				inj1.InjectStep(seed, run, step, psa).Undo()
			}
			inj1.InjectStep(seed, run, 5, psa)

			inj2 := sc.NewInjector(ts2)
			inj2.InjectStep(seed, run, 5, psa)

			if !ts1[0].Equal(ts2[0]) {
				t.Fatal("step-5 lesion depends on draw history")
			}

			// Distinct steps must draw distinct lesions (else "transient"
			// would silently degenerate to persistent).
			l5 := ts1[0].Clone()
			inj2.InjectStep(seed, run, 5, psa).Undo()
			inj2.InjectStep(seed, run, 6, psa)
			if ts2[0].Equal(l5) {
				t.Fatal("steps 5 and 6 drew identical lesions")
			}
		})
	}
}

// TestScenarioInjectorRecyclesLesion pins the documented reuse
// contract: successive Inject* calls recycle one lesion record, so
// holding the previous *Lesion past the next call is a bug in the
// caller, not the injector.
func TestScenarioInjectorRecyclesLesion(t *testing.T) {
	for _, sc := range builtinScenarios(t) {
		t.Run(sc.Spec(), func(t *testing.T) {
			r := tensor.NewRNG(51)
			ts := randTensors(r, 400)
			inj := sc.NewInjector(ts)
			l1 := inj.InjectRun(1, 0, 0.05)
			l1.Undo()
			l2 := inj.InjectRun(1, 1, 0.05)
			l2.Undo()
			if l1 != l2 {
				t.Fatal("injector allocated a fresh lesion instead of recycling")
			}
		})
	}
}

func TestClusteredRespectsRowBoundaries(t *testing.T) {
	// Burst length far beyond the row length: without truncation a
	// burst would run through many rows; with it, every drawn fault run
	// stays inside one 50-cell row.
	sc := Clustered{Len: 1000, Tile: 1 << 20, Mix: ChenModel()}
	tens := tensor.New(100, 50)
	tensor.FillNormal(tens, tensor.NewRNG(61), 0, 1)
	dm := sc.DrawMap(tensor.NewRNG(62), []*tensor.Tensor{tens}, 0.5)
	if dm.NumFaults() == 0 {
		t.Fatal("no faults drawn; test is vacuous")
	}
	checkRuns(t, dm, 50, func(start, end int) {
		if start/50 != (end-1)/50 {
			t.Fatalf("fault run [%d,%d) crosses a row boundary (rowLen 50)", start, end)
		}
	})
}

func TestClusteredRespectsTileBoundaries(t *testing.T) {
	sc := Clustered{Len: 1000, Tile: 10, Mix: ChenModel()}
	tens := tensor.New(100, 50)
	tensor.FillNormal(tens, tensor.NewRNG(63), 0, 1)
	dm := sc.DrawMap(tensor.NewRNG(64), []*tensor.Tensor{tens}, 0.5)
	if dm.NumFaults() == 0 {
		t.Fatal("no faults drawn; test is vacuous")
	}
	checkRuns(t, dm, 50, func(start, end int) {
		col0, col1 := start%50, (end-1)%50
		if start/50 != (end-1)/50 || col0/10 != col1/10 {
			t.Fatalf("fault run [%d,%d) crosses a tile boundary (tile 10)", start, end)
		}
	})
}

// checkRuns invokes check on every maximal run of consecutive faulted
// indices in dm's first tensor.
func checkRuns(t *testing.T, dm *DeviceMap, rowLen int, check func(start, end int)) {
	t.Helper()
	fs := dm.faults[0]
	start := -1
	prev := -2
	for _, f := range fs {
		idx := int(f.idx)
		if idx != prev+1 {
			if start >= 0 {
				check(start, prev+1)
			}
			start = idx
		}
		prev = idx
	}
	if start >= 0 {
		check(start, prev+1)
	}
}

func TestClusteredRealizedRateNearTarget(t *testing.T) {
	sc := NewClustered(0, 0, Model{})
	tens := tensor.New(500, 400) // 200k cells
	tensor.FillNormal(tens, tensor.NewRNG(65), 0, 1)
	for _, psa := range []float64{0.01, 0.05} {
		dm := sc.DrawMap(tensor.NewRNG(66), []*tensor.Tensor{tens}, psa)
		got := float64(dm.NumFaults()) / float64(tens.Len())
		// Expected rate is slightly below psa (boundary truncation);
		// burst clustering widens the variance vs i.i.d. draws.
		if got < 0.6*psa || got > 1.15*psa {
			t.Fatalf("psa=%g: realized rate %g outside [%g, %g]", psa, got, 0.6*psa, 1.15*psa)
		}
	}
}

func TestClusteredBurstsShareKind(t *testing.T) {
	// All-SA1 mix: every faulted cell must be ±wmax; all-SA0: every
	// faulted cell must be 0. Mixed bursts would violate one of these.
	tens := tensor.Full(2, 64, 64)
	sa1 := Clustered{Len: 8, Tile: 64, Mix: Model{Ratio0: 0, Ratio1: 1}}
	dm := sa1.DrawMap(tensor.NewRNG(67), []*tensor.Tensor{tens}, 0.1)
	l := dm.Apply([]*tensor.Tensor{tens})
	for _, v := range tens.Data() {
		if v != 2 && v != -2 {
			t.Fatalf("SA1-only cluster produced weight %v, want ±2", v)
		}
	}
	l.Undo()
}

func TestDropConnectIsSA0OnlyTransient(t *testing.T) {
	sc := DropConnect()
	if !sc.Transient() {
		t.Fatal("drop must be transient")
	}
	ts := []*tensor.Tensor{tensor.Full(3, 5000)}
	inj := sc.NewInjector(ts)
	l := inj.InjectStep(1, 0, 0, 0.2)
	sa0, sa1 := l.Counts()
	if sa1 != 0 || sa0 == 0 {
		t.Fatalf("drop lesion counts sa0=%d sa1=%d, want SA0-only", sa0, sa1)
	}
	for _, v := range ts[0].Data() {
		if v != 3 && v != 0 {
			t.Fatalf("drop produced weight %v, want 0 or untouched 3", v)
		}
	}
	l.Undo()
}

func TestRegisterRejectsBadNames(t *testing.T) {
	for _, name := range []string{"", "a:b", "a,b", "a=b", "a b", "chen"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Register(%q) did not panic", name)
				}
			}()
			Register(name, func(map[string]string) (Scenario, error) { return Chen(), nil })
		}()
	}
}

// TestStuckAtCustomMix: a stuck-at scenario built from NewModel keeps
// its mix through its spec and draws faults at that SA0/SA1 split.
func TestStuckAtCustomMix(t *testing.T) {
	sc := StuckAt(NewModel(1, 3))
	if sc.Spec() != "chen:r0=1,r1=3" || sc.Transient() || sc.Validate() != nil {
		t.Fatalf("StuckAt(1:3): spec %q, transient %t, validate %v", sc.Spec(), sc.Transient(), sc.Validate())
	}
	parsed, err := Parse(sc.Spec())
	if err != nil || parsed.Spec() != sc.Spec() {
		t.Fatalf("Parse(%q) = %v, %v", sc.Spec(), parsed, err)
	}
	r := tensor.NewRNG(12)
	l := sc.NewInjector(randTensors(r, 200_000)).InjectRun(12, 0, 0.05)
	sa0, sa1 := l.Counts()
	if p1 := float64(sa1) / float64(sa0+sa1); p1 < 0.73 || p1 > 0.77 {
		t.Fatalf("SA1 share %v, want ≈0.75", p1)
	}
	l.Undo()
}

// TestStuckAtModelValidation: an unset model resolves to the Chen
// mix, and a negative ratio fails validation instead of drawing.
func TestStuckAtModelValidation(t *testing.T) {
	if got, want := StuckAt(NewModel(0, 0)).Spec(), Chen().Spec(); got != want {
		t.Fatalf("StuckAt(zero model).Spec() = %q, want %q", got, want)
	}
	if err := StuckAt(NewModel(-1, 1)).Validate(); err == nil {
		t.Fatal("a negative SA0 ratio passed validation")
	}
}
