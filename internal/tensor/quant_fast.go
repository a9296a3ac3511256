//go:build amd64 && !noasm

package tensor

// AVX2 int8 dot kernels. They are bit-identical to the scalar kernels:
// VPMADDWD pair sums and the lane-wise VPADDD reduction reorder
// integer additions, and integer addition is associative, so the
// result equals the scalar kernel's for every input. The microkernels
// take n as a multiple of 4; Go callers finish the last n%4 elements.

//go:noescape
func dotS8Asm(a, b *int8, n int) int32

//go:noescape
func dot4S8Asm(a, b0, b1, b2, b3 *int8, n int, out *int32)

// fastDotS8 returns the int32 dot product of a and b (same length):
// microkernel over the widest multiple of 4, scalar tail in Go.
func fastDotS8(a, b []int8) int32 {
	k := len(a)
	w := k &^ 3
	var s int32
	if w > 0 {
		s = dotS8Asm(&a[0], &b[0], w)
	}
	for p := w; p < k; p++ {
		s += int32(a[p]) * int32(b[p])
	}
	return s
}

// fastDot4S8 returns the four dot products of a against b0..b3 (all
// len(a) long), sharing each sign-extended a vector across the four
// rows.
func fastDot4S8(a, b0, b1, b2, b3 []int8) (s0, s1, s2, s3 int32) {
	k := len(a)
	w := k &^ 3
	if w > 0 {
		var out [4]int32
		dot4S8Asm(&a[0], &b0[0], &b1[0], &b2[0], &b3[0], w, &out[0])
		s0, s1, s2, s3 = out[0], out[1], out[2], out[3]
	}
	for p := w; p < k; p++ {
		av := int32(a[p])
		s0 += av * int32(b0[p])
		s1 += av * int32(b1[p])
		s2 += av * int32(b2[p])
		s3 += av * int32(b3[p])
	}
	return
}
