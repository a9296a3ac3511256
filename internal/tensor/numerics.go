package tensor

// The float kernels have one numerics contract, exact: a contract on
// each output element's operation sequence — every product and every
// sum rounded separately, in the reference kernels' association, with
// their zero skips — pinned bit for bit by the oracle suites. The Go
// loops meet it, and so do the exact-order AVX kernels the products
// run wherever the CPU has AVX (a noasm build keeps the loops). Every
// determinism-, checkpoint- and repro-bearing path — distributed
// leases, checkpoint resume, the determinism-equivalence suites — is
// defined against it.

// Numerics, NumericsExact, Numerics.String, SetNumerics and
// ActiveNumerics are a shim for perfbench, a separate module built
// against this one, which pins the tier with SetNumerics and prints
// ActiveNumerics in its host line. There is no tier left to select:
// they go with the next change to perfbench, and no code in this
// module calls them.
type Numerics int32

// NumericsExact is the exact contract, the only one there is.
const NumericsExact Numerics = 0

// String returns "exact".
func (Numerics) String() string { return "exact" }

// SetNumerics does nothing.
func SetNumerics(Numerics) {}

// ActiveNumerics returns NumericsExact.
func ActiveNumerics() Numerics { return NumericsExact }

// CPUFeatures returns the detected SIMD features the kernels use as a
// comma-separated list (e.g. "avx,avx2"), or "" when none was detected
// or detection is unavailable (non-amd64 or noasm builds). AVX runs
// the exact float kernels; AVX2 runs the int8 ones.
func CPUFeatures() string {
	return cpuFeatures
}
