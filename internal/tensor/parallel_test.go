package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// withWorkers runs fn under a forced worker count, restoring the
// previous setting afterwards.
func withWorkers(n int, fn func()) {
	old := SetWorkers(n)
	defer SetWorkers(old)
	fn()
}

// matmulShapes is the equivalence-test shape grid. It deliberately
// includes every tail path of the unrolled kernels: k < 4 (the 4-wide
// unroll never fires), m = 1 (no sharding possible), n = 1, and
// m values that are not multiples of any plausible shard count.
var matmulShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 3, 7},    // m = 1: sharding must degrade to serial
	{2, 1, 5},    // k = 1: pure tail loop
	{3, 2, 4},    // k = 2
	{5, 3, 9},    // k = 3: last sub-unroll tail
	{4, 4, 4},    // exact unroll boundary
	{7, 5, 3},    // k = 4+1 tail
	{8, 17, 8},   // odd k above unroll
	{13, 31, 29}, // primes: never a multiple of the shard count
	{16, 64, 64},
	{33, 37, 41}, // above matMulShardFlops with awkward row count
	{64, 48, 70},
	{128, 19, 33},
}

func randPair(seed uint64, m, k, n int) (*Tensor, *Tensor) {
	r := NewRNG(seed)
	a, b := New(m, k), New(k, n)
	FillNormal(a, r, 0, 1)
	FillNormal(b, r, 0, 1)
	// Sprinkle exact zeros so the kernels' skip-zero fast paths fire.
	for i := 0; i < a.Len(); i += 5 {
		a.Data()[i] = 0
	}
	return a, b
}

// TestMatMulParallelEquivalence checks that the sharded MatMulInto is
// bit-identical to the serial reference at several worker counts,
// across shapes that exercise every kernel tail path.
func TestMatMulParallelEquivalence(t *testing.T) {
	for _, sh := range matmulShapes {
		a, b := randPair(uint64(sh.m*1000+sh.k*10+sh.n), sh.m, sh.k, sh.n)
		want := New(sh.m, sh.n)
		withWorkers(1, func() { MatMulInto(want, a, b) })
		for _, w := range []int{2, 3, 8, 64} {
			got := Full(999, sh.m, sh.n) // poison: every element must be overwritten
			withWorkers(w, func() { MatMulInto(got, a, b) })
			if !got.Equal(want) {
				t.Fatalf("MatMul %dx%dx%d differs at workers=%d", sh.m, sh.k, sh.n, w)
			}
		}
	}
}

// TestMatMulTBParallelEquivalence does the same for A·Bᵀ.
func TestMatMulTBParallelEquivalence(t *testing.T) {
	for _, sh := range matmulShapes {
		r := NewRNG(uint64(sh.m + sh.k + sh.n))
		a, bT := New(sh.m, sh.k), New(sh.n, sh.k)
		FillNormal(a, r, 0, 1)
		FillNormal(bT, r, 0, 1)
		want := New(sh.m, sh.n)
		withWorkers(1, func() { MatMulTBInto(want, a, bT) })
		for _, w := range []int{2, 3, 8, 64} {
			got := Full(999, sh.m, sh.n)
			withWorkers(w, func() { MatMulTBInto(got, a, bT) })
			if !got.Equal(want) {
				t.Fatalf("MatMulTB %dx%dx%d differs at workers=%d", sh.m, sh.k, sh.n, w)
			}
		}
	}
}

// TestMatMulTAParallelEquivalence does the same for Aᵀ·B, the
// weight-gradient kernel. Its shards are column ranges of A that get
// packed into contiguous panels, so this additionally pins that the
// pack-and-accumulate path matches the serial full-matrix path.
func TestMatMulTAParallelEquivalence(t *testing.T) {
	for _, sh := range matmulShapes {
		// Reuse the grid as (k, m, n): A is k×m, out is m×n.
		r := NewRNG(uint64(sh.m*7 + sh.k*3 + sh.n))
		a, b := New(sh.m, sh.k), New(sh.m, sh.n)
		FillNormal(a, r, 0, 1)
		FillNormal(b, r, 0, 1)
		for i := 0; i < a.Len(); i += 5 {
			a.Data()[i] = 0
		}
		want := New(sh.k, sh.n)
		withWorkers(1, func() { MatMulTAInto(want, a, b) })
		for _, w := range []int{2, 3, 8, 64} {
			got := Full(999, sh.k, sh.n)
			withWorkers(w, func() { MatMulTAInto(got, a, b) })
			if !got.Equal(want) {
				t.Fatalf("MatMulTA %dx%dx%d differs at workers=%d", sh.m, sh.k, sh.n, w)
			}
		}
	}
}

// checkParallelForN runs ParallelForN(w, n) and checks its contract:
// every index runs exactly once, shard indices are dense and below
// min(w, n), and no shard index runs two chunks at once. It reports
// through t.Errorf, so any goroutine may call it.
func checkParallelForN(t *testing.T, w, n int) {
	seen := make([]atomic.Int32, n)
	limit := min(w, n)
	busy := make([]atomic.Bool, max(limit, 1))
	used := make([]atomic.Bool, max(limit, 1))
	ParallelForN(w, n, func(shard, lo, hi int) {
		if shard < 0 || shard >= limit {
			t.Errorf("w=%d n=%d: shard index %d outside [0, %d)", w, n, shard, limit)
			return
		}
		if !busy[shard].CompareAndSwap(false, true) {
			t.Errorf("w=%d n=%d: shard %d runs two chunks at once", w, n, shard)
			return
		}
		used[shard].Store(true)
		for i := lo; i < hi; i++ {
			seen[i].Add(1)
		}
		runtime.Gosched() // hold the shard while others may run
		busy[shard].Store(false)
	})
	for i := range seen {
		if c := seen[i].Load(); c != 1 {
			t.Errorf("w=%d n=%d: index %d ran %d times", w, n, i, c)
			return
		}
	}
	for s := 1; s < len(used); s++ {
		if used[s].Load() && !used[s-1].Load() {
			t.Errorf("w=%d n=%d: shard %d ran but shard %d did not", w, n, s, s-1)
		}
	}
}

// parallelForCases spans the serial path (w or n at most 1), n below,
// at and above w, and w above the pool's helper count.
var parallelForCases = []struct{ w, n int }{
	{1, 1}, {1, 10}, {4, 10}, {10, 4}, {3, 7}, {8, 8}, {16, 1}, {5, 0}, {7, 100}, {2, 2}, {2, 33}, {64, 1000},
}

// TestParallelForNCoverage checks the chunking contract on one caller.
func TestParallelForNCoverage(t *testing.T) {
	for _, tc := range parallelForCases {
		checkParallelForN(t, tc.w, tc.n)
	}
}

// TestParallelForNConcurrentCallers runs the contract from several
// goroutines at once: at most one job holds the pool, and the others
// must finish on their own goroutines.
func TestParallelForNConcurrentCallers(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				for _, tc := range parallelForCases {
					checkParallelForN(t, tc.w, tc.n)
				}
			}
		}()
	}
	wg.Wait()
}

// TestParallelForNNested calls ParallelForN from inside a body, on the
// caller and on helpers alike.
func TestParallelForNNested(t *testing.T) {
	for r := 0; r < 100; r++ {
		var outer atomic.Int32
		ParallelForN(2, 16, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				checkParallelForN(t, 2, 9+i)
				outer.Add(1)
			}
		})
		if c := outer.Load(); c != 16 {
			t.Fatalf("round %d: outer ran %d units, want 16", r, c)
		}
	}
}

// TestParallelForNAboveHelpers asks for far more workers than the pool
// has helpers: no more goroutines than the helpers and the caller may
// take a shard.
func TestParallelForNAboveHelpers(t *testing.T) {
	limit := poolHelpers() + 1
	var top atomic.Int64
	for r := 0; r < 20; r++ {
		checkParallelForN(t, 64, 1000)
		ParallelForN(64, 1000, func(shard, _, _ int) {
			for {
				m := top.Load()
				if int64(shard) <= m || top.CompareAndSwap(m, int64(shard)) {
					break
				}
			}
		})
	}
	if m := top.Load(); m >= int64(limit) {
		t.Fatalf("shard index %d with %d helpers", m, limit-1)
	}
}

// TestParallelForNOneP runs the contract, serial and concurrent, with
// GOMAXPROCS 1: a helper and the caller then take turns on one P.
func TestParallelForNOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tc := range parallelForCases {
		checkParallelForN(t, tc.w, tc.n)
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, tc := range parallelForCases {
				checkParallelForN(t, tc.w, tc.n)
			}
		}()
	}
	wg.Wait()
}

// TestParallelForLateHelperRunsNothing joins a helper to a job after
// the call that posted it returned: it must take no seat and run no
// chunk.
func TestParallelForLateHelperRunsNothing(t *testing.T) {
	if poolHelpers() == 0 {
		t.Skip("one CPU: no pool")
	}
	var j *job
	for r := 0; j == nil && r < 100; r++ {
		var mu sync.Mutex
		ParallelForN(2, 8, func(_, _, _ int) {
			mu.Lock()
			defer mu.Unlock()
			if j == nil {
				j = posted.Load()
			}
		})
	}
	if j == nil {
		t.Fatal("no call ran with its job posted")
	}
	ran := j.next.Load()
	if j.help() {
		t.Fatal("a helper joined a finished job")
	}
	if j.next.Load() != ran || j.body != nil {
		t.Fatal("a late helper took a chunk of a finished job")
	}
}

// TestSetWorkersContract pins the knob semantics: <=0 restores the
// core-count default, and the previous value round-trips.
func TestSetWorkersContract(t *testing.T) {
	old := SetWorkers(3)
	defer SetWorkers(old)
	if got := Workers(); got != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", got)
	}
	if prev := SetWorkers(0); prev != 3 {
		t.Fatalf("SetWorkers returned %d, want 3", prev)
	}
	if got := Workers(); got < 1 {
		t.Fatalf("default Workers() = %d, want >= 1", got)
	}
}
