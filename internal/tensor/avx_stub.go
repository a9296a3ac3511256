//go:build !amd64 || noasm

package tensor

// Pure-Go builds (non-amd64, or the noasm tag) have no asm kernels:
// s8Supported and avxSupported are constant false, so no dispatch
// predicate ever selects a kernel, and these stubs exist only to
// satisfy the dispatch call sites. They are unreachable. The exact
// float kernels run their Go loops.

const (
	s8Supported  = false
	avxSupported = false
)

var cpuFeatures = ""

func unreachableAsm() {
	panic("tensor: asm kernel called in a build without it")
}

func avxTile2(o0, o1, a0, a1, pb []float32, offs []int, jw int, skips bool) { unreachableAsm() }
func avxTile1(orow, arow, pb []float32, offs []int, jw int, skips bool)     { unreachableAsm() }
func avxTAShard(od, ad, bd []float32, k, m, n, lo, hi int)                  { unreachableAsm() }
func avxAddRuns(dst, src []float32, rows, n, ds int)                        { unreachableAsm() }
func avxPatches3x3(panel []float32, ps int, plane []float32, c, hp, wp, outH, outW int) {
	unreachableAsm()
}
func avxEpilogue(dst, src, res []float32, keep []uint32, rows, n, ds, ss, rs int, mean, mul1, mul2, beta float32, relu bool) {
	unreachableAsm()
}
func avxBNDX(dx, dy, gate, x []float32, rows, n, stride int, mean, inv float32, k, meanDy, meanDyXh float64) {
	unreachableAsm()
}
func avxBNStats4(sum, sq []float64, x []float32, n, c, area, ch int) { unreachableAsm() }
func avxBNGradSums4(sumDy, sumDyXh []float64, dy, gate, x []float32, n, c, area, ch int, mean, inv []float32) {
	unreachableAsm()
}
