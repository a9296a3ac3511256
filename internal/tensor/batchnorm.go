package tensor

import "math"

// Batch-norm training kernels. nn.BatchNorm2D's training forward and
// backward run on these, over an n×c×area (NCHW) batch x:
//
//   - BatchStats: each channel's float64 sums Σx and Σx², from which the
//     forward takes its batch mean and variance;
//   - the normalize pass is ConvEpilogue.Apply (convgemm.go);
//   - BatchNormGradSums: each channel's float64 sums Σdy and Σdy·x̂, with
//     x̂ = (x − mean)·inv recomputed in float32 from x;
//   - BatchNormDX: the input gradient k·((dy − mean_dy) − x̂·mean_dyx̂).
//
// A channel's sums are chains of rounded float64 adds in one order:
// sample i ascending, then position j ascending. Where the CPU has AVX,
// four channels' chains run side by side in the four float64 lanes of
// one register (bnStats4AVX, bnGradSums4AVX), so that the adds of one
// chain wait on each other and not on the adds of the others; that
// changes which chains run together, never the operands or the order of
// one chain. The channels past the last multiple of four, and every
// channel in builds and on CPUs without AVX, run one chain at a time in
// the Go loops bnStats1 and bnGradSums1.
//
// A gate, when not nil, is the output of a ReLU that followed the batch
// norm, in x's layout: it gates dy, which then counts where the gate is
// > 0 and is +0 elsewhere, as ReLU's backward leaves it.

// ReLUMask returns all ones when v > 0 and zero otherwise, so -0 and
// NaN select +0 just as the comparison does. v > 0 exactly when its
// bits b lie in [1, 0x7f800000] (+Inf included): when b-1, as an
// unsigned 32-bit value, is below 0x7f800000. The difference below is
// negative exactly then, and its sign bit is the mask.
func ReLUMask(v float32) uint32 {
	return uint32((int64(math.Float32bits(v)-1) - 0x7f800000) >> 63)
}

// gated returns d where g > 0 and +0 elsewhere.
func gated(d, g float32) float32 {
	return math.Float32frombits(math.Float32bits(d) & ReLUMask(g))
}

// checkBatch panics unless x holds an n×c×area batch and every
// per-channel slice in chans has c values.
func checkBatch(name string, x []float32, n, c, area int, chans ...int) {
	if len(x) < n*c*area {
		panic("tensor: " + name + " batch too small")
	}
	for _, l := range chans {
		if l < c {
			panic("tensor: " + name + " per-channel slice too short")
		}
	}
}

// BatchStats sets sum[ch] = Σ x and sq[ch] = Σ x² over channel ch of
// the n×c×area batch x, each a float64 chain (each x² a rounded float64
// product) in sample-then-position order.
func BatchStats(sum, sq []float64, x []float32, n, c, area int) {
	checkBatch("BatchStats", x, n, c, area, len(sum), len(sq))
	ch := 0
	if avxSupported {
		for ; ch+4 <= c; ch += 4 {
			avxBNStats4(sum[ch:ch+4], sq[ch:ch+4], x, n, c, area, ch)
		}
	}
	for ; ch < c; ch++ {
		sum[ch], sq[ch] = bnStats1(x, n, c, area, ch)
	}
}

// bnStats1 returns BatchStats' sums of channel ch, one chain at a time.
func bnStats1(x []float32, n, c, area, ch int) (sum, sq float64) {
	for i := 0; i < n; i++ {
		for _, v := range x[(i*c+ch)*area:][:area] {
			v := float64(v)
			sum += v
			sq += float64(v * v)
		}
	}
	return sum, sq
}

// BatchNormGradSums sets sumDy[ch] = Σ dy and sumDyXh[ch] = Σ dy·x̂
// over channel ch of the n×c×area batch, with dy gated by gate when
// gate is not nil and x̂ = float32((x − mean[ch])·inv[ch]), each a
// float64 chain (each dy·x̂ a rounded float64 product) in
// sample-then-position order.
func BatchNormGradSums(sumDy, sumDyXh []float64, dy, gate, x []float32, n, c, area int, mean, inv []float32) {
	checkBatch("BatchNormGradSums", x, n, c, area, len(sumDy), len(sumDyXh), len(mean), len(inv))
	checkBatch("BatchNormGradSums", dy, n, c, area)
	if gate != nil {
		checkBatch("BatchNormGradSums", gate, n, c, area)
	}
	ch := 0
	if avxSupported {
		for ; ch+4 <= c; ch += 4 {
			avxBNGradSums4(sumDy[ch:ch+4], sumDyXh[ch:ch+4], dy, gate, x, n, c, area, ch, mean[ch:ch+4], inv[ch:ch+4])
		}
	}
	for ; ch < c; ch++ {
		sumDy[ch], sumDyXh[ch] = bnGradSums1(dy, gate, x, n, c, area, ch, mean[ch], inv[ch])
	}
}

// bnGradSums1 returns BatchNormGradSums' sums of channel ch, one chain
// at a time.
func bnGradSums1(dy, gate, x []float32, n, c, area, ch int, mean, inv float32) (sumDy, sumDyXh float64) {
	for i := 0; i < n; i++ {
		o := (i*c + ch) * area
		xr := x[o:][:area]
		var g []float32
		if gate != nil {
			g = gate[o:][:area]
		}
		for j, a := range dy[o:][:area] {
			if gate != nil {
				a = gated(a, g[j])
			}
			e := float64(a)
			sumDy += e
			sumDyXh += float64(e * float64((xr[j]-mean)*inv))
		}
	}
	return sumDy, sumDyXh
}

// BatchNormDX stores, for every element of the n×c×area batch,
//
//	dx = float32(k[ch]·((dy − meanDy[ch]) − x̂·meanDyXh[ch]))
//
// in float64, with dy gated by gate when gate is not nil and
// x̂ = float32((x − mean[ch])·inv[ch]), every operation rounded on its
// own. A channel's runs go to the AVX kernel where the CPU has AVX and
// to bnDXLoop otherwise, with the same bits.
func BatchNormDX(dx, dy, gate, x []float32, n, c, area int, mean, inv []float32, k, meanDy, meanDyXh []float64) {
	checkBatch("BatchNormDX", x, n, c, area, len(mean), len(inv), len(k), len(meanDy), len(meanDyXh))
	checkBatch("BatchNormDX", dy, n, c, area)
	checkBatch("BatchNormDX", dx, n, c, area)
	if gate != nil {
		checkBatch("BatchNormDX", gate, n, c, area)
	}
	if n == 0 || area == 0 {
		return
	}
	stride := c * area
	for ch := 0; ch < c; ch++ {
		o := ch * area
		var g []float32
		if gate != nil {
			g = gate[o:]
		}
		if avxSupported {
			avxBNDX(dx[o:], dy[o:], g, x[o:], n, area, stride, mean[ch], inv[ch], k[ch], meanDy[ch], meanDyXh[ch])
			continue
		}
		bnDXLoop(dx[o:], dy[o:], g, x[o:], n, area, stride, mean[ch], inv[ch], k[ch], meanDy[ch], meanDyXh[ch])
	}
}

// bnDXLoop is BatchNormDX's kernel in Go, over rows runs of n elements
// that lie stride apart in dx, dy, gate (when not nil) and x: the
// reference the AVX kernel is tested against, and the path of builds
// and CPUs without AVX. Each product is converted before the next
// operation, so no compiler fuses it into a subtraction.
func bnDXLoop(dx, dy, gate, x []float32, rows, n, stride int, mean, inv float32, k, meanDy, meanDyXh float64) {
	for r := 0; r < rows; r++ {
		o := r * stride
		out, xr := dx[o:][:n], x[o:][:n]
		var g []float32
		if gate != nil {
			g = gate[o:][:n]
		}
		for j, a := range dy[o:][:n] {
			if gate != nil {
				a = gated(a, g[j])
			}
			xh := float64((xr[j] - mean) * inv)
			out[j] = float32(k * (float64(a) - meanDy - float64(xh*meanDyXh)))
		}
	}
}
