//go:build !amd64 || noasm

package tensor

// Pure-Go builds (non-amd64, or the noasm tag) have no asm kernels:
// fastSupported, s8Supported and avxSupported are constant false, so
// no dispatch predicate ever selects a microkernel, and these stubs
// exist only to satisfy the dispatch call sites. They are unreachable.
// The exact tier runs its Go loops.

const (
	fastSupported = false
	s8Supported   = false
	avxSupported  = false
)

var cpuFeatures = ""

func unreachableFast() {
	panic("tensor: fast kernels called in a build without them")
}

func fastGemm(dst, a, b []float32, m, k, n int)         { unreachableFast() }
func fastGemmTA(dst, a, b []float32, k, m, n int)       { unreachableFast() }
func fastGemmTASerial(dst, a, b []float32, k, m, n int) { unreachableFast() }
func fastGemmTB(dst, a, b []float32, m, k, n int)       { unreachableFast() }

func fastTile1(orow, arow, pb []float32, jw, bs, base int) { unreachableFast() }

func avxTile2(o0, o1, a0, a1, pb []float32, jw, bs, base int, skips bool) { unreachableFast() }
func avxTile1(orow, arow, pb []float32, jw, bs, base int, skips bool)     { unreachableFast() }
func avxTAShard(od, ad, bd []float32, k, m, n, lo, hi int)                { unreachableFast() }
func avxAddRuns(dst, src []float32, rows, n, ds int)                      { unreachableFast() }
func avxPatches3x3(panel []float32, ps int, plane []float32, c, hp, wp, outH, outW int) {
	unreachableFast()
}

func convSampleDWAxpy(chunk, srci, dyi, patches []float32, c, h, w, outC, kh, kw, stride, pad, outH, outW int, fast1x1 bool) {
	unreachableFast()
}

func fastDot4(a, b0, b1, b2, b3 []float32) (s0, s1, s2, s3 float32) {
	unreachableFast()
	return
}

func fastDot(a, b []float32) float32 {
	unreachableFast()
	return 0
}
