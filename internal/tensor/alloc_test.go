//go:build !race

// Allocation-regression tests. Excluded under -race: the race runtime
// instruments allocations differently, and the parallel paths are
// pinned to one worker here anyway (spawned goroutines allocate, which
// is why every test below forces Workers=1).

package tensor

import "testing"

func TestGemmWarmAllocs(t *testing.T) {
	withWorkers(1, func() {
		// n > gemmJTile forces the panel-packing path, so this also
		// pins that the pooled packing buffer is reused.
		a, b := randPair(1, 32, 48, 300)
		out := New(32, 300)
		for i := 0; i < 3; i++ { // warm the panel pool
			MatMulInto(out, a, b)
		}
		if avg := testing.AllocsPerRun(50, func() { MatMulInto(out, a, b) }); avg > 0 {
			t.Fatalf("warm MatMulInto allocates %.1f/op, want 0", avg)
		}
	})
}

func TestGemmTAWarmAllocs(t *testing.T) {
	withWorkers(1, func() {
		a, b := New(48, 33), New(48, 40)
		FillNormal(a, NewRNG(2), 0, 1)
		FillNormal(b, NewRNG(3), 0, 1)
		out := New(33, 40)
		MatMulTAInto(out, a, b)
		if avg := testing.AllocsPerRun(50, func() { MatMulTAInto(out, a, b) }); avg > 0 {
			t.Fatalf("warm MatMulTAInto allocates %.1f/op, want 0", avg)
		}
	})
}

func TestGemmTBWarmAllocs(t *testing.T) {
	withWorkers(1, func() {
		a, b := New(32, 48), New(40, 48)
		FillNormal(a, NewRNG(4), 0, 1)
		FillNormal(b, NewRNG(5), 0, 1)
		out := New(32, 40)
		MatMulTBInto(out, a, b)
		if avg := testing.AllocsPerRun(50, func() { MatMulTBInto(out, a, b) }); avg > 0 {
			t.Fatalf("warm MatMulTBInto allocates %.1f/op, want 0", avg)
		}
	})
}

func TestConvGemmForwardWarmAllocs(t *testing.T) {
	withWorkers(1, func() {
		// The 32×32 paper shape: cols = 16·1024 spans many panels, so
		// this pins both the packing panel and the sample-spanning
		// scratch panel to the pool.
		s := benchConv32
		wd, src, _ := convOracleData(9, s)
		dst := make([]float32, s.n*s.outC*s.h*s.w)
		for i := 0; i < 3; i++ { // warm the panel pool
			ConvGemmForward(dst, wd, src, s.n, s.c, s.h, s.w, s.outC, s.kh, s.kw, s.stride, s.pad)
		}
		if avg := testing.AllocsPerRun(20, func() {
			ConvGemmForward(dst, wd, src, s.n, s.c, s.h, s.w, s.outC, s.kh, s.kw, s.stride, s.pad)
		}); avg > 0 {
			t.Fatalf("warm ConvGemmForward allocates %.1f/op, want 0", avg)
		}
	})
}

func TestConvGemmBackwardWarmAllocs(t *testing.T) {
	withWorkers(1, func() {
		s := convShape{4, 4, 12, 12, 4, 3, 3, 1, 1}
		wd, src, dY := convOracleData(10, s)
		k := s.c * s.kh * s.kw
		dX := make([]float32, s.n*s.c*s.h*s.w)
		chunks := make([]float32, s.n*s.outC*k)
		for i := 0; i < 3; i++ {
			ConvGemmBackward(dX, chunks, wd, src, dY, s.n, s.c, s.h, s.w, s.outC, s.kh, s.kw, s.stride, s.pad)
		}
		if avg := testing.AllocsPerRun(20, func() {
			ConvGemmBackward(dX, chunks, wd, src, dY, s.n, s.c, s.h, s.w, s.outC, s.kh, s.kw, s.stride, s.pad)
		}); avg > 0 {
			t.Fatalf("warm ConvGemmBackward allocates %.1f/op, want 0", avg)
		}
	})
}

// TestGemmS8TBWarmAllocs: the int8 GEMM needs no packing, so it is
// allocation-free from the first call.
func TestGemmS8TBWarmAllocs(t *testing.T) {
	withWorkers(1, func() {
		m, k, n := 64, 144, 16
		a := randS8(1, m*k)
		b := randS8(2, n*k)
		dst := make([]int32, m*n)
		if avg := testing.AllocsPerRun(50, func() { GemmS8TB(dst, a, b, m, k, n) }); avg > 0 {
			t.Fatalf("GemmS8TB allocates %.1f/op, want 0", avg)
		}
	})
}

func TestWorkspaceWarmAllocs(t *testing.T) {
	var ws Workspace
	data := make([]float32, 24)
	ws.Get(0, 4, 6)
	ws.View(1, data, 2, 12)
	avg := testing.AllocsPerRun(50, func() {
		ws.Get(0, 4, 6)
		ws.GetZeroed(0, 2, 6)
		ws.View(1, data, 24)
	})
	if avg > 0 {
		t.Fatalf("warm Workspace ops allocate %.1f/op, want 0", avg)
	}
}

func TestReseedAllocs(t *testing.T) {
	r := NewRNG(1)
	if avg := testing.AllocsPerRun(50, func() {
		r.Reseed(StreamSeedN(42, "defect-run", 3))
		_ = r.Uint64()
	}); avg > 0 {
		t.Fatalf("Reseed path allocates %.1f/op, want 0", avg)
	}
}
