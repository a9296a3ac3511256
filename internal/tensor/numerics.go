package tensor

import (
	"fmt"
	"os"
	"sync/atomic"
)

// Numerics selects the kernel numerics tier for the whole process.
//
// The two tiers make one contract explicit:
//
//   - NumericsExact (the zero value, and the default): a contract on
//     each output element's operation sequence — every product and
//     every sum rounded separately, in the reference kernels'
//     association, with their zero skips — pinned bit for bit by the
//     oracle suites. The Go loops meet it, and so do the exact-order
//     AVX tile kernels the A·B products run wherever the CPU has AVX
//     (a noasm build keeps the loops). Every determinism-,
//     checkpoint-, and repro-bearing path — distributed leases,
//     checkpoint resume, the determinism-equivalence suites — is
//     contractually exact.
//   - NumericsFast: AVX2+FMA microkernels. FMA fuses the multiply and
//     add with a single rounding and the vectorized reduction sums in
//     a different order, so results differ from exact in the last
//     ULPs; the fast tier is pinned against the exact oracle by
//     ULP-tolerance tests instead of bit identity. Within the fast
//     tier, results are still per-element deterministic: the same
//     shapes produce the same bits at any worker count.
//
// The tier is a process-wide knob (like GOMAXPROCS), set once at
// startup; it is not a per-call parameter.
type Numerics int32

const (
	// NumericsExact is the bitwise-pinned tier (default).
	NumericsExact Numerics = iota
	// NumericsFast is the AVX2+FMA vectorized tier, ULP-pinned
	// against exact. Requesting it on hardware (or a noasm build)
	// without the kernels silently keeps the exact tier active;
	// callers can detect that via FastSupported/ActiveNumerics.
	NumericsFast
)

// String returns the canonical spelling accepted by ParseNumerics.
func (n Numerics) String() string {
	switch n {
	case NumericsExact:
		return "exact"
	case NumericsFast:
		return "fast"
	default:
		return fmt.Sprintf("numerics(%d)", int32(n))
	}
}

// ParseNumerics parses "exact" or "fast" (the -numerics flag values).
func ParseNumerics(s string) (Numerics, error) {
	switch s {
	case "exact":
		return NumericsExact, nil
	case "fast":
		return NumericsFast, nil
	default:
		return NumericsExact, fmt.Errorf("unknown numerics tier %q (want \"exact\" or \"fast\")", s)
	}
}

// numericsMode holds the requested tier. Kernels read it once per
// entry-point call, so flipping it mid-computation affects only
// subsequent calls.
var numericsMode atomic.Int32

// SetNumerics requests a numerics tier for all subsequent kernel
// calls and returns the previously requested tier. Unknown values are
// clamped to NumericsExact.
func SetNumerics(n Numerics) Numerics {
	if n != NumericsFast {
		n = NumericsExact
	}
	return Numerics(numericsMode.Swap(int32(n)))
}

// RequestedNumerics reports the tier last passed to SetNumerics (or
// taken from FTPIM_NUMERICS at init), whether or not it is available.
func RequestedNumerics() Numerics {
	return Numerics(numericsMode.Load())
}

// ActiveNumerics reports the tier kernels actually run in: the
// requested tier, demoted to exact when the fast kernels are not
// compiled in or the CPU lacks AVX2+FMA.
func ActiveNumerics() Numerics {
	if useFast() {
		return NumericsFast
	}
	return NumericsExact
}

// FastSupported reports whether the fast tier can run in this
// process: the assembly kernels are compiled in (amd64, no noasm tag)
// and the CPU plus OS support AVX2, FMA, and YMM state.
func FastSupported() bool {
	return fastSupported
}

// CPUFeatures returns the detected SIMD feature set relevant to the
// fast tier as a comma-separated list (e.g. "avx,avx2,fma"), or ""
// when nothing relevant was detected or detection is unavailable
// (non-amd64 or noasm builds).
func CPUFeatures() string {
	return cpuFeatures
}

// useFast is the dispatch predicate the kernel entry points check.
func useFast() bool {
	return fastSupported && numericsMode.Load() == int32(NumericsFast)
}

// FTPIM_NUMERICS pre-selects the tier before main runs, so whole test
// binaries can be forced onto the fast tier (the CI leg does exactly
// that). An explicit SetNumerics — e.g. from the -numerics flag —
// overrides it.
func init() {
	v := os.Getenv("FTPIM_NUMERICS")
	if v == "" {
		return
	}
	m, err := ParseNumerics(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tensor: ignoring FTPIM_NUMERICS=%q: %v\n", v, err)
		return
	}
	numericsMode.Store(int32(m))
}
