//go:build !amd64 || noasm

package tensor

// Pure-Go builds have no int8 microkernels; s8Supported is constant
// false, so these stubs only satisfy the dispatch call sites.

func fastDotS8(a, b []int8) int32 {
	unreachableFast()
	return 0
}

func fastDot4S8(a, b0, b1, b2, b3 []int8) (s0, s1, s2, s3 int32) {
	unreachableFast()
	return
}
