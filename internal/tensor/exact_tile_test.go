package tensor

import (
	"fmt"
	"math"
	"testing"
)

// The exact tier has two implementations of its A·B tile updates: the
// Go loops gemmTile2/gemmTile1 and the AVX kernels behind
// avxTile2/avxTile1. The entry points pick the AVX kernels wherever the
// CPU has AVX, so the Go loops only run under -tags noasm or off amd64;
// these tests call both directly on the same inputs, as the int8 tests
// do for their scalar and AVX2 kernels, and require the same bits.

// tileOperands builds one tile call's inputs: coefficient rows a0, a1
// (k each) whose quads cycle through every skip pattern — both rows
// live, row 0 zero, row 1 zero, both zero — with zeros, a -0 and zero
// single coefficients sprinkled in, and a panel of span floats with
// ±Inf and NaN planted in it.
func tileOperands(seed uint64, k, span int) (a0, a1, pb []float32) {
	rng := NewRNG(seed)
	a := New(2, k)
	FillNormal(a, rng, 0, 1)
	a0, a1 = a.Data()[:k], a.Data()[k:]
	for q := 0; 4*q+4 <= k; q++ {
		switch q % 4 {
		case 1:
			clear(a0[4*q : 4*q+4])
		case 2:
			clear(a1[4*q : 4*q+4])
		case 3:
			clear(a0[4*q : 4*q+4])
			clear(a1[4*q : 4*q+4])
		}
	}
	for p := 0; p < k; p += 5 {
		a0[p] = 0
	}
	if k > 1 {
		a1[k-1] = float32(math.Copysign(0, -1))
	}
	b := New(span)
	FillNormal(b, rng, 0, 1)
	pb = b.Data()
	inf := float32(math.Inf(1))
	for i := 3; i < len(pb); i += 11 {
		switch (i / 11) % 3 {
		case 0:
			pb[i] = inf
		case 1:
			pb[i] = -inf
		default:
			pb[i] = float32(math.NaN())
		}
	}
	return a0, a1, pb
}

// strideOffsets is the row-offset table of a panel whose k rows lie bs
// apart from base on. With bs < jw the rows overlap.
func strideOffsets(k, bs, base int) []int {
	offs := make([]int, k)
	for p := range offs {
		offs[p] = base + p*bs
	}
	return offs
}

// tapOffsets is the stride-1 conv's table for k taps of a 3×3 kernel
// over planes of 5 rows of wp columns, from base on: tap (ch, ky, kx)
// at (ch·5 + ky)·wp + kx. Its rows overlap inside one plane whenever
// wp is less than the tile's width, as a conv block's rows do.
func tapOffsets(k, wp, base int) []int {
	offs := make([]int, k)
	for p := range offs {
		offs[p] = base + ((p/9)*5+(p%9)/3)*wp + p%3
	}
	return offs
}

// guardedRow returns a jw-long output row inside a larger buffer whose
// other elements hold a canary, prefilled with garbage, and a check
// that the canaries survived.
func guardedRow(jw int) (row []float32, intact func() bool) {
	const canary = 12345.5
	buf := make([]float32, jw+16)
	for i := range buf {
		buf[i] = canary
	}
	row = buf[8 : 8+jw]
	for i := range row {
		row[i] = float32(math.NaN())
	}
	return row, func() bool {
		for i, v := range buf {
			if (i < 8 || i >= 8+jw) && v != canary {
				return false
			}
		}
		return true
	}
}

// checkExactTiles runs both tile implementations on one input, whose
// panel rows the ascending table offs addresses, and fails on the
// first difference in bits (NaN where the Go loop gives NaN) or on a
// write outside the output rows.
func checkExactTiles(t *testing.T, seed uint64, k, jw int, offs []int) {
	t.Helper()
	span := 1
	if k > 0 {
		span = offs[k-1] + jw + 1
	}
	a0, a1, pb := tileOperands(seed, k, span)
	want0, ok := guardedRow(jw)
	want1, _ := guardedRow(jw)
	gemmTile2(want0, want1, a0, a1, pb, offs, jw)
	got0, ok0 := guardedRow(jw)
	got1, ok1 := guardedRow(jw)
	avxTile2(got0, got1, a0, a1, pb, offs, jw, true)
	if !ok0() || !ok1() || !ok() {
		t.Fatalf("k=%d jw=%d: tile2 wrote outside its rows", k, jw)
	}
	if i := exactMismatch(want0, got0); i >= 0 {
		t.Fatalf("k=%d jw=%d: avxTile2 row 0 differs at %d: %v, Go loop %v", k, jw, i, got0[i], want0[i])
	}
	if i := exactMismatch(want1, got1); i >= 0 {
		t.Fatalf("k=%d jw=%d: avxTile2 row 1 differs at %d: %v, Go loop %v", k, jw, i, got1[i], want1[i])
	}
	for r, a := range [][]float32{a0, a1} {
		want, _ := guardedRow(jw)
		gemmTile1(want, a, pb, offs, jw)
		got, okg := guardedRow(jw)
		avxTile1(got, a, pb, offs, jw, true)
		if !okg() {
			t.Fatalf("k=%d jw=%d: tile1 wrote outside its row", k, jw)
		}
		if i := exactMismatch(want, got); i >= 0 {
			t.Fatalf("k=%d jw=%d: avxTile1 (row %d) differs at %d: %v, Go loop %v", k, jw, r, i, got[i], want[i])
		}
	}
}

func TestExactTilesAVXMatchGoLoops(t *testing.T) {
	if !avxSupported {
		t.Skip("no AVX kernels in this build or on this CPU: the Go loops are the only exact tiles")
	}
	for _, k := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 13, 16, 17, 36, 37, 144} {
		for _, jw := range []int{1, 2, 7, 8, 9, 13, 15, 16, 17, 31, 32, 33, 46, 166, 257} {
			seed := uint64(k*1000 + jw)
			// Rows bs apart from base: packed (bs = jw) or in a wider
			// matrix.
			for _, extra := range []int{0, 5} {
				for _, base := range []int{0, 3} {
					t.Run(fmt.Sprintf("k%d_jw%d_bs%d_base%d", k, jw, jw+extra, base), func(t *testing.T) {
						checkExactTiles(t, seed, k, jw, strideOffsets(k, jw+extra, base))
					})
				}
			}
			// Rows that overlap: one element apart, and the conv's taps.
			t.Run(fmt.Sprintf("k%d_jw%d_overlap", k, jw), func(t *testing.T) {
				checkExactTiles(t, seed, k, jw, strideOffsets(k, 1, 0))
			})
			t.Run(fmt.Sprintf("k%d_jw%d_taps", k, jw), func(t *testing.T) {
				checkExactTiles(t, seed, k, jw, tapOffsets(k, max(3, jw/3), 2))
			})
		}
	}
}

// FuzzExactTilesAVXVsGo drives both exact tile implementations on
// fuzz-chosen depths and widths, over panels whose rows lie a
// fuzz-chosen stride apart from an offset (overlapping when the stride
// is below the width) or at a conv's tap offsets.
func FuzzExactTilesAVXVsGo(f *testing.F) {
	f.Add(uint64(1), uint8(9), uint16(13), uint8(13), uint8(0), false)
	f.Add(uint64(2), uint8(36), uint16(166), uint8(3), uint8(7), true)
	f.Add(uint64(3), uint8(0), uint16(1), uint8(0), uint8(0), false)
	f.Add(uint64(4), uint8(255), uint16(300), uint8(17), uint8(1), false)
	f.Add(uint64(5), uint8(144), uint16(46), uint8(14), uint8(3), true)
	f.Fuzz(func(t *testing.T, seed uint64, kRaw uint8, jwRaw uint16, bsRaw, baseRaw uint8, taps bool) {
		if !avxSupported {
			t.Skip("no AVX kernels in this build or on this CPU")
		}
		k := int(kRaw)
		jw := int(jwRaw)%320 + 1
		base := int(baseRaw) % 64
		offs := strideOffsets(k, int(bsRaw)%(jw+32), base)
		if taps {
			offs = tapOffsets(k, int(bsRaw)%64+3, base)
		}
		checkExactTiles(t, seed, k, jw, offs)
	})
}

// The conv epilogue has an AVX kernel and a Go loop of the same bits
// (avxEpilogue, epilogueLoop).

// epilogueOperands builds one epilogue call's inputs: rows runs of n
// values in a source of row stride ss, and a residual of row stride
// rs, holding ±0, ±Inf, NaN and subnormals, and batch-norm constants
// from the seed. Every other seed sets beta to -0 and plants the mean
// in the source, so that batch norm yields exact zeros of both signs,
// which the ReLU must map to +0.
func epilogueOperands(seed uint64, rows, n, ss, rs int) (src, res []float32, mean, gamma, inv, beta float32) {
	rng := NewRNG(seed)
	st := New(max(0, (rows-1)*ss+n) + 1)
	FillNormal(st, rng, 0, 2)
	rt := New(max(0, (rows-1)*rs+n) + 1)
	FillNormal(rt, rng, 0, 2)
	specials := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.NaN()), math.Float32frombits(1), -math.Float32frombits(0x7fffff)}
	src, res = st.Data(), rt.Data()
	for i := int(seed % 5); i < len(src); i += 5 {
		src[i] = specials[(i/5)%len(specials)]
	}
	for i := int(seed % 7); i < len(res); i += 7 {
		res[i] = specials[(i/7)%len(specials)]
	}
	mean = float32(rng.NormFloat64())
	gamma = float32(rng.NormFloat64())
	inv = float32(1 / math.Sqrt(rng.Float64()+1e-5))
	beta = float32(rng.NormFloat64())
	if seed%2 == 0 {
		beta = float32(math.Copysign(0, -1))
		for i := int(seed % 3); i < len(src); i += 3 {
			src[i] = mean
		}
	}
	return src, res, mean, gamma, inv, beta
}

// checkEpilogue runs the AVX and Go epilogues on one input, with and
// without the residual, the ReLU and a keep mask that clears every
// third column, storing runs ds apart, and fails on the first
// difference in bits or on a write outside the rows runs of n outputs,
// into the gaps between them included.
func checkEpilogue(t *testing.T, seed uint64, rows, n, ds, ss, rs int) {
	t.Helper()
	const gap = -777.25
	src, res, mean, gamma, inv, beta := epilogueOperands(seed, rows, n, ss, rs)
	span := max(0, (rows-1)*ds+n)
	inGap := func(i int) bool { return i%ds >= n }
	thirds := make([]uint32, n)
	for x := range thirds {
		if x%3 != int(seed%3) {
			thirds[x] = ^uint32(0)
		}
	}
	for _, keep := range [][]uint32{nil, thirds} {
		for _, r := range [][]float32{nil, res} {
			for _, relu := range []bool{true, false} {
				what := fmt.Sprintf("rows=%d n=%d ds=%d ss=%d rs=%d residual=%t relu=%t keep=%t", rows, n, ds, ss, rs, r != nil, relu, keep != nil)
				want, okw := guardedRow(span)
				got, okg := guardedRow(span)
				for i := range span {
					if inGap(i) {
						want[i], got[i] = gap, gap
					}
				}
				epilogueLoop(want, src, r, keep, rows, n, ds, ss, rs, mean, gamma, inv, beta, relu)
				avxEpilogue(got, src, r, keep, rows, n, ds, ss, rs, mean, gamma, inv, beta, relu)
				intact := okw() && okg()
				for i := range span {
					if inGap(i) && (want[i] != gap || got[i] != gap) {
						intact = false
					}
				}
				if !intact {
					t.Fatalf("%s: epilogue wrote outside its runs", what)
				}
				if i := exactMismatch(want, got); i >= 0 {
					t.Fatalf("%s: avxEpilogue differs at %d: %v, Go loop %v", what, i, got[i], want[i])
				}
				for i := range span {
					if keep != nil && !inGap(i) && keep[i%ds] == 0 && math.Float32bits(want[i]) != 0 {
						t.Fatalf("%s: column %d of the keep mask's zeros holds %v, want +0", what, i%ds, want[i])
					}
				}
			}
		}
	}
}

func TestConvEpilogueAVXMatchesGoLoop(t *testing.T) {
	if !avxSupported {
		t.Skip("no AVX kernels in this build or on this CPU: the Go loop is the only epilogue")
	}
	for _, rows := range []int{1, 2, 3, 12} {
		for n := 0; n <= 40; n++ {
			seed := uint64(rows*100 + n)
			checkEpilogue(t, seed, rows, n, max(n, 1), n, n)
			checkEpilogue(t, seed, rows, n, max(n, 1), n+2, n)
			// Into and from a plane interior: runs n+2 apart.
			checkEpilogue(t, seed, rows, n, n+2, n+5, n+2)
			checkEpilogue(t, seed, rows, n, n+2, n, n+4)
		}
	}
}

// FuzzConvEpilogueAVXVsGo drives the AVX epilogue against its Go loop
// on fuzz-chosen run lengths 0–40, run counts and destination, source
// and residual strides, with and without a residual and the ReLU.
func FuzzConvEpilogueAVXVsGo(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(12), uint8(2), uint8(0), uint8(2))
	f.Add(uint64(2), uint8(1), uint8(40), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(3), uint8(12), uint8(3), uint8(11), uint8(2), uint8(5))
	f.Add(uint64(4), uint8(2), uint8(0), uint8(0), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, rowsRaw, nRaw, gapRaw, dGapRaw, rGapRaw uint8) {
		if !avxSupported {
			t.Skip("no AVX kernels in this build or on this CPU")
		}
		n := int(nRaw) % 41
		ds := max(n+int(dGapRaw)%9, 1)
		checkEpilogue(t, seed, int(rowsRaw)%13+1, n, ds, n+int(gapRaw)%16, n+int(rGapRaw)%9)
	})
}

// The exact conv backward has four more AVX kernels, each with a Go
// loop of the same bits: the Aᵀ·B shard behind GemmTA and dX
// (avxTAShard, gemmTAShard), the dW tiles with their zero skips off
// (convSampleDWTiles, convSampleDW's dot loop), the stride-1 dW
// panel's 3×3 patch copy (avxPatches3x3, planePatchesLoop) and the
// stride-1 scatter's run adds (avxAddRuns, addRunsLoop).

// taOperands builds A (k×m) and B (k×n) for one Aᵀ·B shard: A's
// coefficient pairs meet every skip pattern — both live, one ±0, both
// zero, a whole zero column — and B holds ±Inf and NaN, so a skipped
// zero and a multiplied one give different bits.
func taOperands(seed uint64, k, m, n int) (a, b []float32) {
	rng := NewRNG(seed)
	at := New(k, m)
	FillNormal(at, rng, 0, 1)
	a = at.Data()
	for x := 0; x < len(a); x += 3 {
		a[x] = 0
	}
	for p := 0; p < k; p++ {
		if m > 2 {
			a[p*m+2] = 0
		}
		if p%4 == 1 && m > 5 {
			a[p*m+4], a[p*m+5] = 0, float32(math.Copysign(0, -1))
		}
	}
	if len(a) > 1 {
		a[1] = float32(math.Copysign(0, -1))
	}
	bt := New(k, n)
	FillNormal(bt, rng, 0, 1)
	b = bt.Data()
	plantSpecials(b, k, n)
	return a, b
}

// checkTAShard runs the AVX and Go Aᵀ·B shards on one input and fails
// on the first difference in bits, or on a write outside rows [lo, hi).
func checkTAShard(t *testing.T, seed uint64, k, m, n, lo, hi int) {
	t.Helper()
	a, b := taOperands(seed, k, m, n)
	const canary = 12345.5
	want := make([]float32, m*n)
	got := make([]float32, m*n)
	for i := range want {
		want[i], got[i] = canary, canary
	}
	gemmTAShard(want, a, b, k, m, n, lo, hi)
	avxTAShard(got, a, b, k, m, n, lo, hi)
	for x, v := range got {
		if (x < lo*n || x >= hi*n) && v != canary {
			t.Fatalf("k=%d m=%d n=%d rows [%d,%d): avxTAShard wrote outside its rows at %d", k, m, n, lo, hi, x)
		}
	}
	if i := exactMismatch(want, got); i >= 0 {
		t.Fatalf("k=%d m=%d n=%d rows [%d,%d): avxTAShard differs at %d: %v, Go loop %v", k, m, n, lo, hi, i, got[i], want[i])
	}
}

// dwTileData builds one sample's dW inputs for checkDWTiles: src with
// ±Inf and NaN, and dY with a whole zero row (output channel 1), a
// zero quad and a zero single in row 0, and a -0.
func dwTileData(seed uint64, s convShape) (src, dY []float32) {
	_, src, dY = convOracleData(seed, s)
	outArea := ConvOutSize(s.h, s.kh, s.stride, s.pad) * ConvOutSize(s.w, s.kw, s.stride, s.pad)
	plantPerSample(seed, src, s.n, s.c*s.h*s.w)
	if s.outC >= 2 {
		clear(dY[outArea : 2*outArea])
	}
	if outArea >= 4 {
		clear(dY[outArea&^3-4 : outArea&^3])
	}
	dY[outArea-1] = float32(math.Copysign(0, -1))
	return src, dY
}

// checkDWTiles runs the dW tiles with their skips off and the dW dot
// loop on the first sample of s and fails on the first difference. The
// chunk and the tiles' scratch start poisoned: the tiles store into the
// chunk when k is a multiple of 8 and into the scratch otherwise, and
// either way must overwrite what was there.
func checkDWTiles(t *testing.T, seed uint64, s convShape) {
	t.Helper()
	src, dY := dwTileData(seed, s)
	outH := ConvOutSize(s.h, s.kh, s.stride, s.pad)
	outW := ConvOutSize(s.w, s.kw, s.stride, s.pad)
	outArea := outH * outW
	k := s.c * s.kh * s.kw
	kp := (k + 7) &^ 7
	srci, dyi := src[:s.c*s.h*s.w], dY[:s.outC*outArea]
	want := make([]float32, s.outC*k)
	convSampleDW(want, srci, dyi, make([]float32, 4*outArea), s.c, s.h, s.w, s.outC, s.kh, s.kw, s.stride, s.pad, outH, outW,
		s.kh == 1 && s.kw == 1 && s.stride == 1 && s.pad == 0)
	got, tc := make([]float32, s.outC*k), make([]float32, s.outC*kp)
	for i := range got {
		got[i] = 12345.5
	}
	for i := range tc {
		tc[i] = 12345.5
	}
	plane := make([]float32, s.c*(s.h+2*s.pad)*(s.w+2*s.pad))
	panel := make([]float32, kp*outArea)
	for i := range panel {
		panel[i] = float32(math.NaN()) // the padding columns' stale values
	}
	convSampleDWTiles(got, srci, dyi, panel, tc, plane, strideOffsets(outArea, kp, 0),
		s.c, s.h, s.w, s.outC, s.kh, s.kw, s.stride, s.pad, outH, outW)
	if i := exactMismatch(want, got); i >= 0 {
		t.Fatalf("%v: dW tiles differ from the dot loop at %d: %v, dot %v", s, i, got[i], want[i])
	}
}

// checkAddRuns runs the AVX and Go run adds on one input and fails on
// the first difference, or on a write between or after the runs. With
// ds = 0 every run adds into the same n values, as AddRows does; then
// one run holds the specials, so that the columns without one stay
// finite through all the adds.
func checkAddRuns(t *testing.T, seed uint64, rows, n, ds int) {
	t.Helper()
	rng := NewRNG(seed)
	src := New(rows*n + 1)
	FillNormal(src, rng, 0, 1)
	if ds == 0 {
		r := int(seed % uint64(rows))
		plantSpecials(src.Data()[r*n:(r+1)*n], 1, n)
	} else {
		plantSpecials(src.Data(), 1, rows*n+1)
	}
	dst := New(rows*ds + n + 9)
	FillNormal(dst, rng, 0, 1)
	want := dst.Clone().Data()
	got := dst.Clone().Data()
	addRunsLoop(want, src.Data(), rows, n, ds)
	avxAddRuns(got, src.Data(), rows, n, ds)
	if i := exactMismatch(want, got); i >= 0 {
		t.Fatalf("rows=%d n=%d ds=%d: avxAddRuns differs at %d: %v, Go loop %v", rows, n, ds, i, got[i], want[i])
	}
}

// checkPatches3x3 copies the 3×3 patch-major panel of a c×h×w sample
// with pad both ways, rows ps apart, and fails on the first
// difference, or on a write to a padding column.
func checkPatches3x3(t *testing.T, seed uint64, c, h, w, pad, ps int) {
	t.Helper()
	hp, wp := h+2*pad, w+2*pad
	outH, outW := hp-2, wp-2
	plane := New(c * hp * wp)
	FillNormal(plane, NewRNG(seed), 0, 1)
	want := make([]float32, outH*outW*ps)
	got := make([]float32, outH*outW*ps)
	for i := range want {
		want[i], got[i] = 12345.5, 12345.5
	}
	planePatchesLoop(want, ps, plane.Data(), c, hp, wp, 3, 3, outH, outW)
	avxPatches3x3(got, ps, plane.Data(), c, hp, wp, outH, outW)
	if i := exactMismatch(want, got); i >= 0 {
		t.Fatalf("c=%d %dx%d pad=%d ps=%d: avxPatches3x3 differs at %d: %v, Go loop %v", c, h, w, pad, ps, i, got[i], want[i])
	}
}

func TestExactBackwardAVXMatchesGoLoops(t *testing.T) {
	if !avxSupported {
		t.Skip("no AVX kernels in this build or on this CPU: the Go loops are the only exact backward")
	}
	for _, k := range []int{1, 2, 3, 4, 5, 9, 16, 17, 64} {
		for _, m := range []int{1, 2, 3, 5, 8, 27} {
			for _, n := range []int{1, 3, 7, 8, 9, 15, 16, 17, 31, 33, 144} {
				seed := uint64(k*10000 + m*100 + n)
				checkTAShard(t, seed, k, m, n, 0, m)
				checkTAShard(t, seed, k, m, n, m/2, m)
				checkTAShard(t, seed, k, m, n, 0, (m+1)/2)
			}
		}
	}
	for _, s := range append([]convShape{
		{1, 3, 12, 12, 4, 3, 3, 1, 1}, // the stem: k=27
		{1, 4, 12, 12, 5, 3, 3, 1, 1}, // odd outC, k=36
		{1, 2, 5, 7, 3, 3, 3, 1, 0},   // outArea=15: a single tail
		{1, 8, 6, 6, 8, 3, 3, 2, 1},   // strided: im2rowPatch panel, k=72
		{1, 8, 6, 6, 7, 3, 3, 1, 1},   // stride 1, k=72, odd outC
		{1, 16, 3, 3, 16, 3, 3, 1, 1}, // outArea=9, k=144
		{1, 5, 4, 4, 3, 1, 1, 1, 0},   // 1×1
		{1, 2, 6, 5, 3, 2, 4, 1, 2},   // kw=4, pad 2, k=16
	}, convShapes...) {
		checkDWTiles(t, 0xD0, s)
	}
	for _, c := range []int{1, 3, 4, 16} {
		for _, hw := range [][2]int{{1, 1}, {3, 3}, {6, 6}, {12, 12}, {5, 9}} {
			for _, pad := range []int{1, 2} {
				checkPatches3x3(t, uint64(c*100+hw[0]), c, hw[0], hw[1], pad, 9*c)
				checkPatches3x3(t, uint64(c*100+hw[0]), c, hw[0], hw[1], pad, 9*c+5)
			}
		}
	}
	for _, rows := range []int{1, 2, 3, 12} {
		for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 16, 17} {
			checkAddRuns(t, uint64(rows*100+n), rows, n, n)
			checkAddRuns(t, uint64(rows*100+n), rows, n, n+2)
		}
	}
	for _, rows := range []int{1, 2, 3, 12, 32} {
		for n := 1; n <= 17; n++ {
			checkAddRuns(t, uint64(rows*100+n), rows, n, 0)
		}
	}
}

// FuzzExactBackwardAVXVsGo drives the three exact backward kernels
// against their Go loops on fuzz-chosen shapes: Aᵀ·B shards of any
// depth, width and row range, dW tiles on conv shapes of any stride
// and padding, and run adds of any length and stride, 0 included.
func FuzzExactBackwardAVXVsGo(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(27), uint16(144), uint8(3), uint8(12), uint8(5), uint8(3), uint8(1), uint8(1))
	f.Add(uint64(2), uint8(16), uint8(7), uint16(9), uint8(16), uint8(3), uint8(16), uint8(3), uint8(1), uint8(1))
	f.Add(uint64(3), uint8(1), uint8(1), uint16(1), uint8(1), uint8(1), uint8(1), uint8(1), uint8(1), uint8(0))
	f.Add(uint64(4), uint8(64), uint8(36), uint16(33), uint8(8), uint8(6), uint8(8), uint8(3), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, kRaw, mRaw uint8, nRaw uint16, cRaw, hwRaw, ocRaw, kerRaw, strideRaw, padRaw uint8) {
		if !avxSupported {
			t.Skip("no AVX kernels in this build or on this CPU")
		}
		k, m, n := int(kRaw)%80+1, int(mRaw)%40+1, int(nRaw)%300+1
		lo := int(seed % uint64(m))
		checkTAShard(t, seed, k, m, n, lo, m)
		s := convShape{
			n:      1,
			c:      int(cRaw)%17 + 1,
			h:      int(hwRaw)%14 + 1,
			outC:   int(ocRaw)%17 + 1,
			kh:     int(kerRaw)%4 + 1,
			stride: int(strideRaw)%3 + 1,
			pad:    int(padRaw) % 3,
		}
		s.w, s.kw = s.h, s.kh
		if s.h+2*s.pad >= s.kh {
			checkDWTiles(t, seed, s)
		}
		checkAddRuns(t, seed, int(hwRaw)%5+1, n%20+1, n%20+1+int(padRaw)%4)
		checkAddRuns(t, seed, int(ocRaw)%33+1, n%20+1, 0)
		checkPatches3x3(t, seed, s.c, s.h, int(kRaw)%14+1, s.pad+1, 9*s.c+int(mRaw)%9)
	})
}
