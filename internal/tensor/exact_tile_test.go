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
// single coefficients sprinkled in, and a panel whose row p starts at
// pb[base+p*bs] (bs ≥ jw) with ±Inf and NaN planted in it.
func tileOperands(seed uint64, k, jw, bs, base int) (a0, a1, pb []float32) {
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
	rows := 1
	if k > 0 {
		rows = base/bs + k + 1
	}
	b := New(rows, bs)
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

// checkExactTiles runs both tile implementations on one input and
// fails on the first difference in bits (NaN where the Go loop gives
// NaN) or on a write outside the output rows.
func checkExactTiles(t *testing.T, seed uint64, k, jw, bs, base int) {
	t.Helper()
	a0, a1, pb := tileOperands(seed, k, jw, bs, base)
	want0, ok := guardedRow(jw)
	want1, _ := guardedRow(jw)
	gemmTile2(want0, want1, a0, a1, pb, jw, bs, base)
	got0, ok0 := guardedRow(jw)
	got1, ok1 := guardedRow(jw)
	avxTile2(got0, got1, a0, a1, pb, jw, bs, base, true)
	if !ok0() || !ok1() || !ok() {
		t.Fatalf("k=%d jw=%d bs=%d base=%d: tile2 wrote outside its rows", k, jw, bs, base)
	}
	if i := exactMismatch(want0, got0); i >= 0 {
		t.Fatalf("k=%d jw=%d bs=%d base=%d: avxTile2 row 0 differs at %d: %v, Go loop %v", k, jw, bs, base, i, got0[i], want0[i])
	}
	if i := exactMismatch(want1, got1); i >= 0 {
		t.Fatalf("k=%d jw=%d bs=%d base=%d: avxTile2 row 1 differs at %d: %v, Go loop %v", k, jw, bs, base, i, got1[i], want1[i])
	}
	for r, a := range [][]float32{a0, a1} {
		want, _ := guardedRow(jw)
		gemmTile1(want, a, pb, jw, bs, base)
		got, okg := guardedRow(jw)
		avxTile1(got, a, pb, jw, bs, base, true)
		if !okg() {
			t.Fatalf("k=%d jw=%d bs=%d base=%d: tile1 wrote outside its row", k, jw, bs, base)
		}
		if i := exactMismatch(want, got); i >= 0 {
			t.Fatalf("k=%d jw=%d bs=%d base=%d: avxTile1 (row %d) differs at %d: %v, Go loop %v", k, jw, bs, base, r, i, got[i], want[i])
		}
	}
}

func TestExactTilesAVXMatchGoLoops(t *testing.T) {
	if !avxSupported {
		t.Skip("no AVX kernels in this build or on this CPU: the Go loops are the only exact tiles")
	}
	for _, k := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 13, 16, 17, 36, 37, 144} {
		for _, jw := range []int{1, 2, 7, 8, 9, 13, 15, 16, 17, 31, 32, 33, 46, 166, 257} {
			for _, extra := range []int{0, 5} {
				for _, base := range []int{0, 3} {
					t.Run(fmt.Sprintf("k%d_jw%d_bs%d_base%d", k, jw, jw+extra, base), func(t *testing.T) {
						checkExactTiles(t, uint64(k*1000+jw), k, jw, jw+extra, base)
					})
				}
			}
		}
	}
}

// FuzzExactTilesAVXVsGo drives both exact tile implementations on
// fuzz-chosen depths, widths, panel strides and offsets.
func FuzzExactTilesAVXVsGo(f *testing.F) {
	f.Add(uint64(1), uint8(9), uint16(13), uint8(0), uint8(0))
	f.Add(uint64(2), uint8(36), uint16(166), uint8(3), uint8(7))
	f.Add(uint64(3), uint8(0), uint16(1), uint8(0), uint8(0))
	f.Add(uint64(4), uint8(255), uint16(300), uint8(17), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, kRaw uint8, jwRaw uint16, extraRaw, baseRaw uint8) {
		if !avxSupported {
			t.Skip("no AVX kernels in this build or on this CPU")
		}
		k := int(kRaw)
		jw := int(jwRaw)%320 + 1
		checkExactTiles(t, seed, k, jw, jw+int(extraRaw)%32, int(baseRaw)%64)
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
// loop on the first sample of s and fails on the first difference.
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
	got := make([]float32, s.outC*k)
	plane := make([]float32, s.c*(s.h+2*s.pad)*(s.w+2*s.pad))
	panel := make([]float32, kp*outArea)
	for i := range panel {
		panel[i] = float32(math.NaN()) // the padding columns' stale values
	}
	convSampleDWTiles(got, srci, dyi, panel, make([]float32, s.outC*kp), plane,
		s.c, s.h, s.w, s.outC, s.kh, s.kw, s.stride, s.pad, outH, outW)
	if i := exactMismatch(want, got); i >= 0 {
		t.Fatalf("%v: dW tiles differ from the dot loop at %d: %v, dot %v", s, i, got[i], want[i])
	}
}

// checkAddRuns runs the AVX and Go run adds on one input and fails on
// the first difference, or on a write between or after the runs.
func checkAddRuns(t *testing.T, seed uint64, rows, n, ds int) {
	t.Helper()
	rng := NewRNG(seed)
	src := New(rows*n + 1)
	FillNormal(src, rng, 0, 1)
	plantSpecials(src.Data(), 1, rows*n+1)
	dst := New(rows*ds + 9)
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
		{1, 8, 6, 6, 8, 3, 3, 2, 1},   // strided: im2rowPatch panel
		{1, 16, 3, 3, 16, 3, 3, 1, 1}, // outArea=9, k=144
		{1, 5, 4, 4, 3, 1, 1, 1, 0},   // 1×1
		{1, 2, 6, 5, 3, 2, 4, 1, 2},   // kw=4, pad 2
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
}

// FuzzExactBackwardAVXVsGo drives the three exact backward kernels
// against their Go loops on fuzz-chosen shapes: Aᵀ·B shards of any
// depth, width and row range, dW tiles on conv shapes of any stride
// and padding, and run adds of any length and stride.
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
		checkPatches3x3(t, seed, s.c, s.h, int(kRaw)%14+1, s.pad+1, 9*s.c+int(mRaw)%9)
	})
}
