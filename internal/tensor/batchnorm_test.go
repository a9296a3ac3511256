package tensor

import (
	"math"
	"testing"
)

// The batch-norm training kernels: the side-by-side channel chains of
// BatchStats and BatchNormGradSums against one channel's chain at a
// time, and the dX kernel's AVX and Go versions (avxBNDX, bnDXLoop)
// against each other.

// bnSpecials are the values planted in the kernels' operands.
var bnSpecials = []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
	float32(math.NaN()), math.Float32frombits(1), -math.Float32frombits(0x7fffff)}

// bnOperand returns l seeded values with a special value at every
// period-th element from off on. Every third value is scaled by 2^e,
// e in [-40, 40], so that float64 sums of them round, and a sum taken
// in another order gives other bits.
func bnOperand(rng *RNG, l, period, off int) []float32 {
	t := New(l)
	FillNormal(t, rng, 0, 2)
	d := t.Data()
	for i := 0; i < l; i += 3 {
		d[i] = float32(math.Ldexp(float64(d[i]), int(rng.Uint64()%81)-40))
	}
	for i := off; i < l; i += period {
		d[i] = bnSpecials[(i/period)%len(bnSpecials)]
	}
	return d
}

// checkBNChains runs BatchStats and BatchNormGradSums (gated and not)
// on a seeded n×c×area batch holding special values, and fails unless
// every channel's sums have the bits of that channel's chain run alone
// (NaN where the chain gives NaN).
func checkBNChains(t *testing.T, seed uint64, c, n, area int) {
	t.Helper()
	rng := NewRNG(seed)
	x := bnOperand(rng, n*c*area, 11, c%11)
	dy := bnOperand(rng, n*c*area, 13, n%13)
	gate := bnOperand(rng, n*c*area, 5, area%5)
	mean, inv := bnOperand(rng, c, 1000, 1000), bnOperand(rng, c, 1000, 1000)
	sum, sq := make([]float64, c), make([]float64, c)
	BatchStats(sum, sq, x, n, c, area)
	sdy, sdx := make([]float64, c), make([]float64, c)
	for _, g := range [][]float32{nil, gate} {
		BatchNormGradSums(sdy, sdx, dy, g, x, n, c, area, mean, inv)
		for ch := 0; ch < c; ch++ {
			var s, q, a, b float64
			for i := 0; i < n; i++ {
				for j := 0; j < area; j++ {
					o := (i*c+ch)*area + j
					v := float64(x[o])
					s += v
					q += float64(v * v)
					d := float64(dy[o])
					if g != nil && !(g[o] > 0) {
						d = 0
					}
					a += d
					b += float64(d * float64((x[o]-mean[ch])*inv[ch]))
				}
			}
			for _, p := range [][2]float64{{s, sum[ch]}, {q, sq[ch]}, {a, sdy[ch]}, {b, sdx[ch]}} {
				if math.Float64bits(p[0]) != math.Float64bits(p[1]) && !(p[0] != p[0] && p[1] != p[1]) {
					t.Fatalf("c=%d n=%d area=%d gate=%t channel %d: chains give %v, one channel at a time %v",
						c, n, area, g != nil, ch, p[1], p[0])
				}
			}
		}
	}
}

// TestBatchStatsChainsMatchOneChannelAtATime pins BatchStats and
// BatchNormGradSums (the AVX kernels' side-by-side chains where the CPU
// has AVX, bnStats1 and bnGradSums1 otherwise and past the last
// multiple of four channels) to one channel's chain at a time, on
// channel counts on and off multiples of four and positions on and off
// multiples of four.
func TestBatchStatsChainsMatchOneChannelAtATime(t *testing.T) {
	for _, c := range []int{1, 3, 4, 5, 6, 8, 9, 16} {
		for _, shape := range [][2]int{{1, 1}, {2, 2}, {2, 9}, {1, 3}, {7, 35}, {3, 144}, {0, 4}, {2, 0}} {
			checkBNChains(t, uint64(c*1000+shape[0]*100+shape[1]), c, shape[0], shape[1])
		}
	}
}

// checkBNDX runs the AVX and Go dX kernels on rows runs of n elements,
// stride apart, with and without the gate, and fails on the first
// difference in bits (NaN where the Go loop gives NaN) or on a write
// between or after the runs.
func checkBNDX(t *testing.T, seed uint64, rows, n, stride int) {
	t.Helper()
	const canary = 12345.5
	rng := NewRNG(seed)
	l := max(0, (rows-1)*stride+n)
	dy := bnOperand(rng, l+1, 5, int(seed%5))
	gate := bnOperand(rng, l+1, 3, int(seed%3))
	x := bnOperand(rng, l+1, 7, int(seed%7))
	mean, inv := float32(rng.NormFloat64()), float32(1/math.Sqrt(rng.Float64()+1e-5))
	k, meanDy, meanDyXh := rng.NormFloat64(), 0.1*rng.NormFloat64(), 0.1*rng.NormFloat64()
	if seed%2 == 0 { // x at the mean: x̂ is ±0
		for i := int(seed % 3); i < l; i += 4 {
			x[i] = mean
		}
	}
	for _, g := range [][]float32{nil, gate} {
		want, got := make([]float32, l+8), make([]float32, l+8)
		for i := range want {
			want[i], got[i] = canary, canary
		}
		bnDXLoop(want, dy, g, x, rows, n, stride, mean, inv, k, meanDy, meanDyXh)
		avxBNDX(got, dy, g, x, rows, n, stride, mean, inv, k, meanDy, meanDyXh)
		for i, v := range got {
			if r := i % max(stride, 1); (i >= l || r >= n) && v != canary {
				t.Fatalf("rows=%d n=%d stride=%d gate=%t: avxBNDX wrote outside its runs at %d", rows, n, stride, g != nil, i)
			}
		}
		if i := exactMismatch(want, got); i >= 0 {
			t.Fatalf("rows=%d n=%d stride=%d gate=%t: avxBNDX differs at %d: %v, Go loop %v", rows, n, stride, g != nil, i, got[i], want[i])
		}
	}
}

func TestBatchNormBackwardAVXMatchesGoLoop(t *testing.T) {
	if !avxSupported {
		t.Skip("no AVX kernels in this build or on this CPU: the Go loop is the only dX kernel")
	}
	for _, rows := range []int{1, 2, 3, 7} {
		for n := 0; n <= 40; n++ {
			checkBNDX(t, uint64(rows*100+n), rows, n, n)
			checkBNDX(t, uint64(rows*100+n), rows, n, 3*n+5)
		}
	}
}

// TestBatchNormDXOperationOrder pins the dX kernels to the association
// (dy − meanDy) − x̂·meanDyXh on inputs for which the other association,
// (dy − x̂·meanDyXh) − meanDy, rounds to another float32: x = 1, mean 0
// and inv 1 make x̂ = 1, and k = 1. The runs go through the AVX kernel's
// whole blocks and its tail.
func TestBatchNormDXOperationOrder(t *testing.T) {
	for _, v := range []struct {
		dy        uint32
		meanDy, p uint64
	}{
		{0xbde5ef79, 0x3f81de717ffffffc, 0x3c6ef9bd50000000},
		{0x3dce398d, 0xbf84c1897ffffffc, 0xbc6c5f62d0000000},
		{0xbe53c273, 0xbf91e2418000000c, 0x3c822d04a4000000},
		{0xbebb8dcc, 0x3f81d095ffffffd0, 0x3c88003e30000000},
	} {
		dy := math.Float32frombits(v.dy)
		meanDy, p := math.Float64frombits(v.meanDy), math.Float64frombits(v.p)
		want := float32((float64(dy) - meanDy) - p)
		if other := float32((float64(dy) - p) - meanDy); other == want {
			t.Fatalf("dy=%#08x: both associations give %v; the vector does not tell them apart", v.dy, want)
		}
		for _, n := range []int{1, 4, 5, 9} {
			dys, xs := make([]float32, n), make([]float32, n)
			for i := range dys {
				dys[i], xs[i] = dy, 1
			}
			kernels := []func(dx []float32){func(dx []float32) { bnDXLoop(dx, dys, nil, xs, 1, n, n, 0, 1, 1, meanDy, p) }}
			if avxSupported {
				kernels = append(kernels, func(dx []float32) { avxBNDX(dx, dys, nil, xs, 1, n, n, 0, 1, 1, meanDy, p) })
			}
			for ki, kernel := range kernels {
				dx := make([]float32, n)
				kernel(dx)
				for i, got := range dx {
					if got != want {
						t.Fatalf("dy=%#08x n=%d kernel %d: dx[%d] = %v, want %v", v.dy, n, ki, i, got, want)
					}
				}
			}
		}
	}
}

// FuzzBatchNormBackwardAVXVsGo drives the AVX dX kernel against its Go
// loop on fuzz-chosen run lengths 0–40, run counts and strides, with
// and without the gate, and the statistics and gradient-sum chains
// against one channel's chain at a time on fuzz-chosen channel counts,
// batches and planes.
func FuzzBatchNormBackwardAVXVsGo(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(9), uint8(27))
	f.Add(uint64(2), uint8(1), uint8(40), uint8(0))
	f.Add(uint64(3), uint8(12), uint8(3), uint8(11))
	f.Add(uint64(4), uint8(2), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, rowsRaw, nRaw, gapRaw uint8) {
		if !avxSupported {
			t.Skip("no AVX kernels in this build or on this CPU")
		}
		n := int(nRaw) % 41
		checkBNDX(t, seed, int(rowsRaw)%13+1, n, n+int(gapRaw)%50)
		checkBNChains(t, seed, int(gapRaw)%17+1, int(rowsRaw)%9, n)
	})
}
