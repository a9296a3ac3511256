package tensor

import (
	"fmt"
	"math"
)

// Int8 symmetric quantization and integer GEMM kernels.
//
// The quantized representation is symmetric with zero-point 0:
//
//	q = clamp(round(x / scale), -127, 127)     scale = maxabs / 127
//
// so q == 0 exactly when a padded or zero input element is quantized —
// the conv kernels can treat zero padding as the 0 byte with no
// correction term. Products accumulate in int32, which is exact for
// every reachable magnitude (|q| <= 127, so |sum| <= 16129·k; int32
// holds that up to k ≈ 133 000, far past any layer in this repo).
//
// Integer addition is associative, so the AVX2 variant (quant_fast.go)
// is bit-identical to the scalar kernels here, whatever order it sums
// in, and sharding output rows across workers cannot change any output
// element. The int8 entry points therefore take the AVX2 kernels
// whenever the CPU has them.
// The tests in quant_test.go call the scalar and AVX2 kernels directly
// and pin their identity and worker invariance as exact equality.

// QuantClamp is the symmetric int8 clamp bound: quantized values live
// in [-QuantClamp, QuantClamp] so +x and -x always map to ±q.
const QuantClamp = 127

// MaxAbs returns the largest absolute value in src (0 for empty src).
// NaNs are ignored. A +Inf or -Inf element makes the result +Inf,
// which ScaleFor maps to scale 1, as it does the all-zero case.
func MaxAbs(src []float32) float32 {
	var m float32
	for _, v := range src {
		a := v
		if a < 0 {
			a = -a
		}
		if a > m {
			m = a
		}
	}
	return m
}

// ScaleFor returns the symmetric quantization scale for a tensor whose
// largest magnitude is maxabs. An all-zero tensor gets scale 1 so the
// quantized plane is all zeros and dequantization is exact.
func ScaleFor(maxabs float32) float32 {
	if maxabs <= 0 || math.IsInf(float64(maxabs), 0) || math.IsNaN(float64(maxabs)) {
		return 1
	}
	return maxabs / QuantClamp
}

// QuantizeLinear quantizes src into dst with a single symmetric scale:
// dst[i] = clamp(round(src[i]/scale), ±QuantClamp). The rounding is
// round-half-away-from-zero in float64, which is exact and therefore
// identical on every platform. len(dst) must equal len(src); scale
// must be positive.
func QuantizeLinear(dst []int8, src []float32, scale float32) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: QuantizeLinear length mismatch %d vs %d", len(dst), len(src)))
	}
	qz := NewQuantizer(scale)
	for i, v := range src {
		dst[i] = qz.Q(v)
	}
}

// Quantizer is QuantizeLinear's per-element step for one scale, for
// passes that compute values one at a time and quantize each as it is
// made: Q(v) is the byte QuantizeLinear writes for v.
type Quantizer struct{ inv float64 }

// NewQuantizer returns the quantizer for scale, which must be
// positive.
func NewQuantizer(scale float32) Quantizer {
	if !(scale > 0) {
		panic("tensor: QuantizeLinear requires a positive scale")
	}
	return Quantizer{1 / float64(scale)}
}

// Q quantizes one value: clamp(round(v/scale), ±QuantClamp), rounding
// half away from zero in float64. It rounds with RoundToEven, one
// instruction on amd64, and moves the ties away from zero: math.Round's
// exponent branches mispredict on activations near zero.
func (qz Quantizer) Q(v float32) int8 {
	x := float64(float64(v) * qz.inv)
	r := math.RoundToEven(x)
	// x - r is exact: r is an integer within 0.5 of x.
	if d := x - r; d == 0.5 && x > 0 {
		r++
	} else if d == -0.5 && x < 0 {
		r--
	}
	if r > QuantClamp {
		r = QuantClamp
	} else if r < -QuantClamp {
		r = -QuantClamp
	}
	return int8(r)
}

// QuantizePadded quantizes a c×h×w plane into dst, a zero-bordered
// c×hp×wp plane whose interior starts pad rows down and pad columns
// in, writing the bytes QuantizeLinear would. The border is left as it
// is: a caller zeroes it once per geometry, and Im2RowS8 then gathers
// patches from dst with no bounds tests.
func QuantizePadded(dst []int8, src []float32, c, h, w, hp, wp, pad int, scale float32) {
	if len(src) != c*h*w || len(dst) != c*hp*wp || pad < 0 || h+pad > hp || w+pad > wp {
		panic(fmt.Sprintf("tensor: QuantizePadded shape mismatch c=%d h=%d w=%d hp=%d wp=%d pad=%d dst=%d src=%d",
			c, h, w, hp, wp, pad, len(dst), len(src)))
	}
	qz := NewQuantizer(scale)
	for ci := 0; ci < c; ci++ {
		for y := 0; y < h; y++ {
			srow := src[(ci*h+y)*w : (ci*h+y+1)*w]
			o := (ci*hp+y+pad)*wp + pad
			drow := dst[o : o+w]
			for x, v := range srow {
				drow[x] = qz.Q(v)
			}
		}
	}
}

// QuantizeRows quantizes a row-major rows×cols matrix with one
// symmetric scale per row (per output channel for conv weights, per
// output neuron for linear weights), writing the scales into scales.
// len(dst) and len(src) must be rows*cols and len(scales) rows.
func QuantizeRows(dst []int8, scales []float32, src []float32, rows, cols int) {
	if len(src) != rows*cols || len(dst) != rows*cols || len(scales) != rows {
		panic(fmt.Sprintf("tensor: QuantizeRows shape mismatch rows=%d cols=%d dst=%d src=%d scales=%d",
			rows, cols, len(dst), len(src), len(scales)))
	}
	for r := 0; r < rows; r++ {
		row := src[r*cols : (r+1)*cols]
		s := ScaleFor(MaxAbs(row))
		scales[r] = s
		QuantizeLinear(dst[r*cols:(r+1)*cols], row, s)
	}
}

// dotS8Ref is the scalar int8 dot kernel (and the oracle the AVX2
// variant must match bit for bit).
func dotS8Ref(a, b []int8) int32 {
	var s int32
	p := 0
	for ; p+4 <= len(a); p += 4 {
		s += int32(a[p])*int32(b[p]) + int32(a[p+1])*int32(b[p+1]) +
			int32(a[p+2])*int32(b[p+2]) + int32(a[p+3])*int32(b[p+3])
	}
	for ; p < len(a); p++ {
		s += int32(a[p]) * int32(b[p])
	}
	return s
}

// GemmS8TB computes dst = A·Bᵀ over raw row-major int8 slices with
// int32 accumulators: dst m×n, a m×k, b n×k. This is the one product
// shape the quantized forward path needs — linear layers are
// y = x·Wᵀ directly, and conv becomes the same shape once patches are
// gathered patch-major (Im2RowS8) — so, like the float GemmTB, both
// operands' rows are already contiguous and no packing (and therefore
// no allocation) is needed. Output rows are sharded across Workers()
// goroutines above matMulShardFlops; integer accumulation makes the
// result independent of the shard bounds by construction.
func GemmS8TB(dst []int32, a, b []int8, m, k, n int) {
	if len(a) != m*k || len(b) != n*k || len(dst) != m*n {
		panic(fmt.Sprintf("tensor: GemmS8TB shape mismatch m=%d k=%d n=%d a=%d b=%d dst=%d",
			m, k, n, len(a), len(b), len(dst)))
	}
	if m == 0 || n == 0 {
		return
	}
	fast := s8Supported
	if m >= 2 && m*k*n >= matMulShardFlops && Workers() > 1 {
		ParallelFor(m, func(_, lo, hi int) {
			gemmS8TBRows(dst, a, b, k, n, lo, hi, fast)
		})
		return
	}
	gemmS8TBRows(dst, a, b, k, n, 0, m, fast)
}

// gemmS8TBRows computes output rows [lo, hi) of dst = A·Bᵀ in 1×4
// register tiles within B-row blocks of gemmTBJBlock — the gemmTBRows
// schedule with integer dot kernels.
func gemmS8TBRows(od []int32, ad, bd []int8, k, n, lo, hi int, fast bool) {
	for j0 := 0; j0 < n; j0 += gemmTBJBlock {
		jb := n - j0
		if jb > gemmTBJBlock {
			jb = gemmTBJBlock
		}
		for i := lo; i < hi; i++ {
			arow := ad[i*k : i*k+k]
			orow := od[i*n : i*n+n]
			j := j0
			for ; j+4 <= j0+jb; j += 4 {
				b0 := bd[j*k : j*k+k]
				b1 := bd[(j+1)*k : (j+1)*k+k]
				b2 := bd[(j+2)*k : (j+2)*k+k]
				b3 := bd[(j+3)*k : (j+3)*k+k]
				if fast {
					orow[j], orow[j+1], orow[j+2], orow[j+3] = fastDot4S8(arow, b0, b1, b2, b3)
				} else {
					var s0, s1, s2, s3 int32
					p := 0
					for ; p+4 <= k; p += 4 {
						a0, a1, a2, a3 := int32(arow[p]), int32(arow[p+1]), int32(arow[p+2]), int32(arow[p+3])
						s0 += a0*int32(b0[p]) + a1*int32(b0[p+1]) + a2*int32(b0[p+2]) + a3*int32(b0[p+3])
						s1 += a0*int32(b1[p]) + a1*int32(b1[p+1]) + a2*int32(b1[p+2]) + a3*int32(b1[p+3])
						s2 += a0*int32(b2[p]) + a1*int32(b2[p+1]) + a2*int32(b2[p+2]) + a3*int32(b2[p+3])
						s3 += a0*int32(b3[p]) + a1*int32(b3[p+1]) + a2*int32(b3[p+2]) + a3*int32(b3[p+3])
					}
					for ; p < k; p++ {
						av := int32(arow[p])
						s0 += av * int32(b0[p])
						s1 += av * int32(b1[p])
						s2 += av * int32(b2[p])
						s3 += av * int32(b3[p])
					}
					orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
				}
			}
			for ; j < j0+jb; j++ {
				brow := bd[j*k : j*k+k]
				if fast {
					orow[j] = fastDotS8(arow, brow)
				} else {
					orow[j] = dotS8Ref(arow, brow)
				}
			}
		}
	}
}

// Im2RowS8 gathers conv patches of a zero-bordered int8 plane
// patch-major: src is c×hp×wp with the padding already laid in (see
// QuantizePadded), and dst row q (length c·kh·kw) is the receptive
// field of output position q = y·outW + x, so every tap is a plain
// copy with no bounds test. The resulting outH·outW × c·kh·kw matrix
// feeds GemmS8TB against per-output-channel weight rows. Layout
// matches the float im2colRow's column order transposed: patch-major
// here because the int8 GEMM is the Bᵀ (dot) form.
func Im2RowS8(dst, src []int8, c, hp, wp, kh, kw, stride, outH, outW int) {
	k := c * kh * kw
	if len(src) != c*hp*wp || len(dst) != outH*outW*k ||
		(outH > 0 && (outH-1)*stride+kh > hp) || (outW > 0 && (outW-1)*stride+kw > wp) {
		panic(fmt.Sprintf("tensor: Im2RowS8 shape mismatch c=%d hp=%d wp=%d k=%dx%d stride=%d out=%dx%d dst=%d src=%d",
			c, hp, wp, kh, kw, stride, outH, outW, len(dst), len(src)))
	}
	d := 0
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			o := oy*stride*wp + ox*stride
			for ci := 0; ci < c; ci++ {
				if kh == 3 && kw == 3 { // the ResNet conv: one 9-byte row per channel
					s0 := src[o : o+3 : o+3]
					s1 := src[o+wp : o+wp+3 : o+wp+3]
					s2 := src[o+2*wp : o+2*wp+3 : o+2*wp+3]
					r := dst[d : d+9 : d+9]
					r[0], r[1], r[2] = s0[0], s0[1], s0[2]
					r[3], r[4], r[5] = s1[0], s1[1], s1[2]
					r[6], r[7], r[8] = s2[0], s2[1], s2[2]
					d += 9
				} else {
					for ky := 0; ky < kh; ky++ {
						copy(dst[d:d+kw], src[o+ky*wp:o+ky*wp+kw])
						d += kw
					}
				}
				o += hp * wp
			}
		}
	}
}
