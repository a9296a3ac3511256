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
	avxTile2(got0, got1, a0, a1, pb, jw, bs, base)
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
		avxTile1(got, a, pb, jw, bs, base)
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
