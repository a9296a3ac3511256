//go:build amd64 && !noasm

package tensor

// Exact-tier AVX kernels: the A·B tile updates of gemmTile2 and
// gemmTile1 on eight lanes, with every product and sum rounded
// separately in the Go loops' order and the Go loops' zero skips, so
// they return the Go loops' bits (gemm_avx2_amd64.s explains why). The
// wrappers below take the Go loops' arguments and check the bounds the
// kernels will touch.

//go:noescape
func tile2AVX(o0, o1, a0, a1, b *float32, k, jw, bs int)

//go:noescape
func tile1AVX(o, a, b *float32, k, jw, bs int)

// avxTile2 is gemmTile2 on the AVX kernel.
func avxTile2(o0, o1, a0, a1, pb []float32, jw, bs, base int) {
	o0, o1 = o0[:jw], o1[:jw]
	k := len(a0)
	if k == 0 {
		clear(o0)
		clear(o1)
		return
	}
	_ = a1[k-1]
	_ = pb[base+(k-1)*bs+jw-1]
	tile2AVX(&o0[0], &o1[0], &a0[0], &a1[0], &pb[base], k, jw, bs)
}

// avxTile1 is gemmTile1 on the AVX kernel.
func avxTile1(orow, arow, pb []float32, jw, bs, base int) {
	orow = orow[:jw]
	k := len(arow)
	if k == 0 {
		clear(orow)
		return
	}
	_ = pb[base+(k-1)*bs+jw-1]
	tile1AVX(&orow[0], &arow[0], &pb[base], k, jw, bs)
}
