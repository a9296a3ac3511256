//go:build amd64 && !noasm

package tensor

// Exact-tier AVX kernels: the A·B tile updates of gemmTile2 and
// gemmTile1, the Aᵀ·B update of gemmTAShard, the run adds of the
// stride-1 col2im and the gradient sums, and the conv epilogue, on
// eight lanes, and the batch-norm statistics, gradient sums and input
// gradient on four float64 lanes, with every product and sum rounded
// separately in the Go loops' order and the Go loops' zero skips, so
// they return the Go loops' bits (gemm_avx2_amd64.s explains why), and
// the 3×3 patch copy of the stride-1 dW panel. The wrappers below take
// the Go loops' arguments and check the bounds the kernels will touch.

//go:noescape
func tile2AVX(o0, o1, a0, a1, b *float32, offs *int, k, jw int, skips bool)

//go:noescape
func tile1AVX(o, a, b *float32, offs *int, k, jw int, skips bool)

//go:noescape
func taAVX(o, a, b *float32, k, am, n int)

//go:noescape
func addRunsAVX(dst, src *float32, rows, n, ds int)

//go:noescape
func patches3x3AVX(dst, src *float32, c, outH, outW, hpwp, wp, ps int)

//go:noescape
func epilogueAVX(dst, src, res *float32, keep *uint32, rows, n, ds, ss, rs int, mean, mul1, mul2, beta float32, relu bool)

//go:noescape
func bnDXAVX(dx, dy, gate, x *float32, rows, n, stride int, mean, inv float32, k, meanDy, meanDyXh float64)

//go:noescape
func bnStats4AVX(x *float32, n, area, stride int, sum, sq *float64)

//go:noescape
func bnGradSums4AVX(dy, gate, x *float32, n, area, stride int, mean, inv *float32, sumDy, sumDyXh *float64)

// avxTile2 is gemmTile2 on the AVX kernel. With skips false it skips
// no coefficient: o = o + (((a0·b0 + a1·b1) + a2·b2) + a3·b3) runs for
// every quad, zeros included, and o = o + a·b for every single. Where
// the offsets ascend (see gemmTile2), the first and the last panel row
// bound every row the kernel reads; convRowUnits, whose strided tables
// do not ascend, checks its largest offset's row itself (runWidth).
func avxTile2(o0, o1, a0, a1, pb []float32, offs []int, jw int, skips bool) {
	o0, o1 = o0[:jw], o1[:jw]
	k := len(a0)
	if k == 0 {
		clear(o0)
		clear(o1)
		return
	}
	_ = a1[k-1]
	_ = pb[offs[0]]
	_ = pb[offs[k-1]+jw-1]
	tile2AVX(&o0[0], &o1[0], &a0[0], &a1[0], &pb[0], &offs[0], k, jw, skips)
}

// avxTile1 is gemmTile1 on the AVX kernel, with avxTile2's skips.
func avxTile1(orow, arow, pb []float32, offs []int, jw int, skips bool) {
	orow = orow[:jw]
	k := len(arow)
	if k == 0 {
		clear(orow)
		return
	}
	_ = pb[offs[0]]
	_ = pb[offs[k-1]+jw-1]
	tile1AVX(&orow[0], &arow[0], &pb[0], &offs[0], k, jw, skips)
}

// avxTAShard is gemmTAShard on the AVX kernel: output rows [lo, hi) of
// dst = Aᵀ·B, two rows per call, with A's columns read in place. When
// the shard has an odd number of rows its last pair is rows hi-2 and
// hi-1, so row hi-2 is computed twice, to the same bits. A one-row
// shard runs the Go loop.
func avxTAShard(od, ad, bd []float32, k, m, n, lo, hi int) {
	if hi-lo < 2 || k == 0 {
		gemmTAShard(od, ad, bd, k, m, n, lo, hi)
		return
	}
	_ = ad[(k-1)*m+hi-1]
	_ = bd[k*n-1]
	_ = od[hi*n-1]
	for i := lo; i < hi; i += 2 {
		i = min(i, hi-2)
		taAVX(&od[i*n], &ad[i], &bd[0], k, m, n)
	}
}

// avxAddRuns is addRunsLoop on the AVX kernel.
func avxAddRuns(dst, src []float32, rows, n, ds int) {
	if rows == 0 || n == 0 {
		return
	}
	_ = src[rows*n-1]
	_ = dst[(rows-1)*ds+n-1]
	addRunsAVX(&dst[0], &src[0], rows, n, ds)
}

// avxPatches3x3 is planePatchesLoop for a 3×3 kernel on the AVX
// kernel.
func avxPatches3x3(panel []float32, ps int, plane []float32, c, hp, wp, outH, outW int) {
	if c == 0 || outH == 0 || outW == 0 {
		return
	}
	_ = panel[(outH*outW-1)*ps+9*c-1]
	_ = plane[((c-1)*hp+outH+1)*wp+outW+1]
	patches3x3AVX(&panel[0], &plane[0], c, outH, outW, hp*wp, wp, ps)
}

// avxEpilogue is epilogueLoop on the AVX kernel.
func avxEpilogue(dst, src, res []float32, keep []uint32, rows, n, ds, ss, rs int, mean, mul1, mul2, beta float32, relu bool) {
	if rows == 0 || n == 0 {
		return
	}
	_ = src[(rows-1)*ss+n-1]
	_ = dst[(rows-1)*ds+n-1]
	var r *float32
	if res != nil {
		_ = res[(rows-1)*rs+n-1]
		r = &res[0]
	}
	var k *uint32
	if keep != nil {
		_ = keep[n-1]
		k = &keep[0]
	}
	epilogueAVX(&dst[0], &src[0], r, k, rows, n, ds, ss, rs, mean, mul1, mul2, beta, relu)
}

// avxBNDX is bnDXLoop on the AVX kernel.
func avxBNDX(dx, dy, gate, x []float32, rows, n, stride int, mean, inv float32, k, meanDy, meanDyXh float64) {
	if rows == 0 || n == 0 {
		return
	}
	last := (rows-1)*stride + n - 1
	_, _, _ = dx[last], dy[last], x[last]
	var g *float32
	if gate != nil {
		_ = gate[last]
		g = &gate[0]
	}
	bnDXAVX(&dx[0], &dy[0], g, &x[0], rows, n, stride, mean, inv, k, meanDy, meanDyXh)
}

// avxBNStats4 is bnStats1 of channels ch..ch+3 on the AVX kernel.
func avxBNStats4(sum, sq []float64, x []float32, n, c, area, ch int) {
	sum, sq = sum[:4], sq[:4]
	if n == 0 || area == 0 {
		clear(sum)
		clear(sq)
		return
	}
	_ = x[((n-1)*c+ch+4)*area-1]
	bnStats4AVX(&x[ch*area], n, area, c*area, &sum[0], &sq[0])
}

// avxBNGradSums4 is bnGradSums1 of channels ch..ch+3 on the AVX
// kernel.
func avxBNGradSums4(sumDy, sumDyXh []float64, dy, gate, x []float32, n, c, area, ch int, mean, inv []float32) {
	sumDy, sumDyXh = sumDy[:4], sumDyXh[:4]
	if n == 0 || area == 0 {
		clear(sumDy)
		clear(sumDyXh)
		return
	}
	_, _ = mean[3], inv[3]
	last := ((n-1)*c+ch+4)*area - 1
	_, _ = dy[last], x[last]
	var g *float32
	if gate != nil {
		_ = gate[last]
		g = &gate[ch*area]
	}
	bnGradSums4AVX(&dy[ch*area], g, &x[ch*area], n, area, c*area, &mean[0], &inv[0], &sumDy[0], &sumDyXh[0])
}
