package tensor

import (
	"fmt"
	"math"
	"testing"
)

// The packed, register-tiled kernels must be bitwise-equal to the
// reference kernels they replaced — not merely close: the determinism,
// kill/resume, and golden-CSV contracts all assume GEMM results never
// change. The reference kernels (matMulRows, matMulTARef,
// matMulTBRows) are kept unexported in matmul.go purely as the oracles
// for these tests.

// oracleShapes stresses every structural regime of the blocked kernels:
// k%4 tails, single rows/cols, row-tile remainders (m%4, m%2), the
// packed-B path (n > gemmJTile), multi-tile n with a ragged last panel,
// and shapes large enough to cross the parallel-shard threshold.
var oracleShapes = [][3]int{
	{1, 1, 1},
	{1, 5, 3},
	{2, 4, 4},
	{3, 7, 5},
	{4, 16, 8},
	{5, 9, 11},
	{6, 3, 2},
	{7, 13, 17},
	{8, 8, 257},
	{9, 21, 300},
	{16, 64, 256},
	{17, 30, 259},
	{33, 40, 513},
	{64, 64, 64},
	{70, 128, 70},
}

// oraclePair builds a deterministic (A, B) pair with zeros sprinkled in
// A so the skip-zero fast paths run, including whole all-zero quads.
// Its B is finite, so on its own it cannot tell a skip from a
// multiply by zero; the exact suites add the witnesses below.
func oraclePair(seed uint64, m, k, n int) (*Tensor, *Tensor) {
	rng := NewRNG(seed)
	a := New(m, k)
	b := New(k, n)
	FillNormal(a, rng, 0, 1)
	FillNormal(b, rng, 0, 1)
	ad := a.Data()
	for i := 0; i < len(ad); i += 3 {
		ad[i] = 0
	}
	// Zero a full row of A so one register-tile lane is all skips.
	if m > 2 {
		row := ad[2*k : 3*k]
		for i := range row {
			row[i] = 0
		}
	}
	// Negative zeros make accumulation-order changes observable even
	// when all products cancel.
	if len(ad) > 1 {
		ad[1] = float32(math32Copysign(0, -1))
	}
	return a, b
}

// Witnesses for the exact kernels' zero skips. An accumulator that
// starts at +0 never becomes -0 under round-to-nearest, so skipping a
// zero coefficient changes a result only when the value it would have
// multiplied is ±Inf or NaN (0·Inf and 0·NaN are NaN). The exact
// suites therefore plant ±Inf and NaN on the B side (plantSpecials,
// plantPerSample) and give the coefficient side every skip pattern
// (skipWitnesses).

// skipWitnesses zeroes quad 1 of row 1 and quad 0 of row 3 of the m×k
// coefficient matrix: with oraclePair's all-zero row 2, the 2-row
// register tiles then meet every skip pattern — one row of the pair
// live, the other live, and neither.
func skipWitnesses(ad []float32, m, k int) {
	for _, rq := range [][2]int{{1, 1}, {3, 0}} {
		if i, q := rq[0], rq[1]; i < m && 4*q+4 <= k {
			clear(ad[i*k+4*q : i*k+4*q+4])
		}
	}
}

// plantSpecials writes +Inf, -Inf or NaN into one row of three in
// every six columns of the rows×cols matrix b, cycling through the
// rows so the k mod 4 tail rows get some. The other half of the
// columns stays finite, so accumulation order stays visible there.
func plantSpecials(b []float32, rows, cols int) {
	if rows == 0 {
		return
	}
	inf := float32(math.Inf(1))
	for j := 0; j < cols; j++ {
		p := (j*7 + 3) % rows
		switch j % 6 {
		case 3:
			b[p*cols+j] = inf
		case 4:
			b[p*cols+j] = -inf
		case 5:
			b[p*cols+j] = float32(math.NaN())
		}
	}
}

// exactMismatch returns the first index where got breaks the exact
// contract against the reference want, or -1: the bits must match
// where want is not NaN, and got must be NaN where want is. NaN
// payloads are not part of the contract.
func exactMismatch(want, got []float32) int {
	if len(want) != len(got) {
		return 0
	}
	for i, w := range want {
		g := got[i]
		if w != w {
			if g == g {
				return i
			}
			continue
		}
		if math.Float32bits(w) != math.Float32bits(g) {
			return i
		}
	}
	return -1
}

func math32Copysign(x, s float32) float32 {
	if s < 0 {
		return -x
	}
	return x
}

func TestGemmMatchesReferenceBitwise(t *testing.T) {
	for _, s := range oracleShapes {
		m, k, n := s[0], s[1], s[2]
		t.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(t *testing.T) {
			a, b := oraclePair(0xA11CE, m, k, n)
			skipWitnesses(a.Data(), m, k)
			plantSpecials(b.Data(), k, n)
			want := make([]float32, m*n)
			matMulRows(want, a.Data(), b.Data(), k, n, 0, m)
			for _, w := range []int{1, 3} {
				withWorkers(w, func() {
					got := Full(999, m, n)
					MatMulInto(got, a, b)
					if i := exactMismatch(want, got.Data()); i >= 0 {
						t.Fatalf("workers=%d: packed Gemm differs from reference at %d", w, i)
					}
				})
			}
		})
	}
}

func TestGemmTAMatchesReferenceBitwise(t *testing.T) {
	for _, s := range oracleShapes {
		// Reinterpret the triple: A is k×m here.
		k, m, n := s[1], s[0], s[2]
		t.Run(fmt.Sprintf("%dx%dx%d", k, m, n), func(t *testing.T) {
			// A is k×m, B is k×n: build B directly (oraclePair's B
			// would have m rows, not k).
			a, _ := oraclePair(0xB0B, k, m, n)
			b := New(k, n)
			FillNormal(b, NewRNG(0xB0B^0x77), 0, 1)
			plantSpecials(b.Data(), k, n)
			want := make([]float32, m*n)
			matMulTARef(want, a.Data(), b.Data(), k, m, n)
			for _, w := range []int{1, 4} {
				withWorkers(w, func() {
					got := Full(999, m, n)
					MatMulTAInto(got, a, b)
					if i := exactMismatch(want, got.Data()); i >= 0 {
						t.Fatalf("workers=%d: packed GemmTA differs from reference at %d", w, i)
					}
				})
			}
		})
	}
}

func TestGemmTBMatchesReferenceBitwise(t *testing.T) {
	for _, s := range oracleShapes {
		m, k, n := s[0], s[1], s[2]
		t.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(t *testing.T) {
			a, bt := oraclePair(0xCAFE, m, k, n)
			_ = bt
			rng := NewRNG(0xCAFE + 1)
			b := New(n, k)
			FillNormal(b, rng, 0, 1)
			plantSpecials(b.Data(), n, k)
			want := make([]float32, m*n)
			matMulTBRows(want, a.Data(), b.Data(), k, n, 0, m)
			for _, w := range []int{1, 4} {
				withWorkers(w, func() {
					got := Full(999, m, n)
					MatMulTBInto(got, a, b)
					if i := exactMismatch(want, got.Data()); i >= 0 {
						t.Fatalf("workers=%d: packed GemmTB differs from reference at %d", w, i)
					}
				})
			}
		})
	}
}

// FuzzGemmOracle drives all three packed kernels against their
// reference oracles on fuzz-chosen shapes and seeds.
func FuzzGemmOracle(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(7), uint16(9))
	f.Add(uint64(2), uint8(5), uint8(4), uint16(300))
	f.Add(uint64(3), uint8(1), uint8(1), uint16(1))
	f.Add(uint64(4), uint8(16), uint8(13), uint16(257))
	f.Fuzz(func(t *testing.T, seed uint64, mRaw, kRaw uint8, nRaw uint16) {
		m := int(mRaw)%24 + 1
		k := int(kRaw)%24 + 1
		n := int(nRaw)%320 + 1
		a, b := oraclePair(seed, m, k, n)
		skipWitnesses(a.Data(), m, k)
		plantSpecials(b.Data(), k, n)
		want := make([]float32, m*n)
		matMulRows(want, a.Data(), b.Data(), k, n, 0, m)
		got := Full(999, m, n)
		MatMulInto(got, a, b)
		if exactMismatch(want, got.Data()) >= 0 {
			t.Fatalf("Gemm mismatch at %dx%dx%d seed %d", m, k, n, seed)
		}

		// Aᵀ·B with the same buffers reinterpreted: a is (m×k), treat
		// as k'=m rows of m'=k columns.
		wantTA := make([]float32, k*n)
		bTA := New(m, n)
		FillNormal(bTA, NewRNG(seed^0x55), 0, 1)
		plantSpecials(bTA.Data(), m, n)
		matMulTARef(wantTA, a.Data(), bTA.Data(), m, k, n)
		gotTA := Full(999, k, n)
		MatMulTAInto(gotTA, a, bTA)
		if exactMismatch(wantTA, gotTA.Data()) >= 0 {
			t.Fatalf("GemmTA mismatch at k=%d m=%d n=%d seed %d", m, k, n, seed)
		}

		bTB := New(n, k)
		FillNormal(bTB, NewRNG(seed^0xAA), 0, 1)
		plantSpecials(bTB.Data(), n, k)
		wantTB := make([]float32, m*n)
		matMulTBRows(wantTB, a.Data(), bTB.Data(), k, n, 0, m)
		gotTB := Full(999, m, n)
		MatMulTBInto(gotTB, a, bTB)
		if exactMismatch(wantTB, gotTB.Data()) >= 0 {
			t.Fatalf("GemmTB mismatch at %dx%dx%d seed %d", m, k, n, seed)
		}
	})
}

func TestMatVecIntoMatchesMatVec(t *testing.T) {
	rng := NewRNG(7)
	a := New(9, 13)
	FillNormal(a, rng, 0, 1)
	x := make([]float32, 13)
	for i := range x {
		x[i] = float32(i) - 6
	}
	want := MatVec(a, x)
	dst := make([]float32, 9)
	got := MatVecInto(dst, a, x)
	if &got[0] != &dst[0] {
		t.Fatalf("MatVecInto did not return the caller's destination")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MatVecInto[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestStreamSeedMatchesStream(t *testing.T) {
	root := NewRNG(42)
	if got, want := StreamSeed(42, "shuffle"), root.Stream("shuffle").Seed(); got != want {
		t.Fatalf("StreamSeed = %d, want %d", got, want)
	}
	if got, want := StreamSeedN(42, "defect-run", 7), root.StreamN("defect-run", 7).Seed(); got != want {
		t.Fatalf("StreamSeedN = %d, want %d", got, want)
	}
	r := NewRNG(1)
	r.Uint64()
	r.Reseed(StreamSeedN(42, "defect-run", 7))
	fresh := root.StreamN("defect-run", 7)
	for i := 0; i < 16; i++ {
		if a, b := r.Uint64(), fresh.Uint64(); a != b {
			t.Fatalf("Reseed stream diverges at draw %d: %d vs %d", i, a, b)
		}
	}
}

// matMulRows is the serial reference GEMM kernel over output rows
// [lo, hi) of an unpacked B. It defines the per-element accumulation
// order the blocked kernels must reproduce and serves as the bitwise
// oracle in matmul_oracle_test.go.
func matMulRows(od, ad, bd []float32, k, n, lo, hi int) {
	for i := lo; i < hi; i++ {
		orow := od[i*n : (i+1)*n]
		for x := range orow {
			orow[x] = 0
		}
		arow := ad[i*k : (i+1)*k]
		p := 0
		for ; p+4 <= k; p += 4 {
			a0, a1, a2, a3 := arow[p], arow[p+1], arow[p+2], arow[p+3]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			b0 := bd[p*n : p*n+n]
			b1 := bd[(p+1)*n : (p+1)*n+n]
			b2 := bd[(p+2)*n : (p+2)*n+n]
			b3 := bd[(p+3)*n : (p+3)*n+n]
			for j := range orow {
				orow[j] += float32(a0*b0[j]) + float32(a1*b1[j]) + float32(a2*b2[j]) + float32(a3*b3[j])
			}
		}
		for ; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := bd[p*n : p*n+n]
			for j := range orow {
				orow[j] += float32(av * brow[j])
			}
		}
	}
}

// matMulTARef is the serial reference Aᵀ·B kernel: p-outer rank-1
// updates with a per-coefficient skip. It defines the accumulation
// order gemmTAShard reproduces and serves as the bitwise oracle in
// matmul_oracle_test.go.
func matMulTARef(od, ad, bd []float32, k, m, n int) {
	for x := range od[:m*n] {
		od[x] = 0
	}
	for p := 0; p < k; p++ {
		arow := ad[p*m : (p+1)*m]
		brow := bd[p*n : (p+1)*n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := od[i*n : (i+1)*n]
			for j, bv := range brow {
				orow[j] += float32(av * bv)
			}
		}
	}
}

// matMulTBRows is the serial reference A·Bᵀ kernel over output rows
// [lo, hi) — one dot product per output element. It defines the
// accumulation order gemmTBRows reproduces and serves as the bitwise
// oracle in matmul_oracle_test.go.
func matMulTBRows(od, ad, bd []float32, k, n, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := ad[i*k : (i+1)*k]
		orow := od[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := bd[j*k : (j+1)*k]
			var s float32
			p := 0
			for ; p+4 <= k; p += 4 {
				s += float32(arow[p]*brow[p]) + float32(arow[p+1]*brow[p+1]) +
					float32(arow[p+2]*brow[p+2]) + float32(arow[p+3]*brow[p+3])
			}
			for ; p < k; p++ {
				s += float32(arow[p] * brow[p])
			}
			orow[j] = s
		}
	}
}
