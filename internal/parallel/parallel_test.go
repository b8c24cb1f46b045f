package parallel

import (
	"math"
	"sync/atomic"
	"testing"

	"fpcc/internal/rng"
)

func TestBlocksCoverEverything(t *testing.T) {
	for _, n := range []int{0, 1, 2, 15, 16, 17, 63, 64, 65, 1000, 1024, 4097} {
		size, count := Blocks(n)
		if n == 0 {
			if count != 0 {
				t.Fatalf("Blocks(0) count = %d", count)
			}
			continue
		}
		if size < 1 || count < 1 {
			t.Fatalf("Blocks(%d) = (%d, %d)", n, size, count)
		}
		if count > maxBlocks {
			t.Fatalf("Blocks(%d): %d blocks > cap %d", n, count, maxBlocks)
		}
		if (count-1)*size >= n || count*size < n {
			t.Fatalf("Blocks(%d) = (%d, %d) does not tile [0, n)", n, size, count)
		}
	}
}

func TestForVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 17, 64, 1000} {
			visits := make([]int32, n)
			For(n, workers, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&visits[i], 1)
				}
			})
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, v)
				}
			}
		}
	}
}

func TestForWorkerSlotInRange(t *testing.T) {
	const workers = 4
	var bad atomic.Bool
	ForWorker(1000, workers, func(w, lo, hi int) {
		if w < 0 || w >= workers {
			bad.Store(true)
		}
	})
	if bad.Load() {
		t.Fatal("worker slot outside [0, workers)")
	}
}

// TestReduceSumWorkerInvariance is the property the Fokker-Planck
// audit reductions rely on: the sum is bit-identical for any worker
// count, including the inline serial path.
func TestReduceSumWorkerInvariance(t *testing.T) {
	r := rng.New(42)
	for _, n := range []int{1, 7, 16, 65, 1024, 4097} {
		xs := make([]float64, n)
		for i := range xs {
			// Wild magnitudes so regrouping would visibly change the sum.
			xs[i] = (r.Float64() - 0.5) * math.Pow(10, 12*r.Float64()-6)
		}
		fn := func(lo, hi int) float64 {
			var s float64
			for i := lo; i < hi; i++ {
				s += xs[i]
			}
			return s
		}
		want := ReduceSum(n, 1, fn)
		for _, workers := range []int{2, 3, 5, 8, 100} {
			for rep := 0; rep < 3; rep++ {
				if got := ReduceSum(n, workers, fn); got != want {
					t.Fatalf("n=%d workers=%d: sum %v != serial %v", n, workers, got, want)
				}
			}
		}
	}
}

// TestForRace exercises concurrent block claiming and per-worker
// scratch under the race detector.
func TestForRace(t *testing.T) {
	scratch := NewScratch(8, func() []float64 { return make([]float64, 32) })
	dst := make([]float64, 4096)
	for rep := 0; rep < 10; rep++ {
		ForWorker(len(dst), 8, func(w, lo, hi int) {
			buf := scratch.Get(w)
			for i := lo; i < hi; i++ {
				buf[i%len(buf)] = float64(i)
				dst[i] += 1
			}
		})
	}
	for i, v := range dst {
		if v != 10 {
			t.Fatalf("index %d updated %v times, want 10", i, v)
		}
	}
}

func TestEachVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, n := range []int{0, 1, 10, 100} {
			visits := make([]int32, n)
			var badSlot atomic.Int32
			badSlot.Store(-1)
			EachWorker(n, workers, func(w, i int) {
				if w < 0 || w >= workers {
					badSlot.Store(int32(w))
				}
				atomic.AddInt32(&visits[i], 1)
			})
			if w := badSlot.Load(); w != -1 {
				t.Fatalf("n=%d workers=%d: slot %d outside [0, %d)", n, workers, w, workers)
			}
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, v)
				}
			}
		}
	}
}

// TestEachWorkerCallerRunsSlotZero pins the fork: slot 0 runs on the
// calling goroutine and only workers−1 goroutines are started, each
// sharing one counter-and-barrier allocation, so a call at two
// workers allocates the shared state and one goroutine closure.
func TestEachWorkerCallerRunsSlotZero(t *testing.T) {
	const n = 64
	slots := make([]int, n)
	EachWorker(n, 4, func(w, i int) { slots[i] = w })
	for i, w := range slots {
		if w < 0 || w >= 4 {
			t.Fatalf("index %d ran on slot %d", i, w)
		}
	}
	// One item per call: whichever slot claims it, the call forks once
	// and joins once.
	body := func(w, i int) {}
	if a := testing.AllocsPerRun(200, func() { EachWorker(2, 2, body) }); a > 2 {
		t.Errorf("EachWorker at two workers: %v allocs per call, want at most 2", a)
	}
}

func TestScratchBuildsOnce(t *testing.T) {
	var builds atomic.Int32
	s := NewScratch(2, func() int { builds.Add(1); return 7 })
	for i := 0; i < 3; i++ {
		if got := s.Get(0); got != 7 {
			t.Fatalf("Get(0) = %d", got)
		}
	}
	if builds.Load() != 1 {
		t.Fatalf("constructor ran %d times, want 1", builds.Load())
	}
}

func TestWorkersResolution(t *testing.T) {
	if Workers(3) != 3 {
		t.Fatal("Workers(3) != 3")
	}
	if Workers(0) < 1 || Workers(-1) < 1 {
		t.Fatal("Workers(<=0) must be at least 1")
	}
}

// TestSerialPathAllocatesNothing pins the inline serial path: with one
// worker, ForWorker and ReduceSum call fn directly, with no closure or
// partials array built per call. The solver step loops call them once
// per step, so one allocation here is one per step at workers = 1.
func TestSerialPathAllocatesNothing(t *testing.T) {
	xs := make([]float64, 4097)
	forBody := func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			xs[i]++
		}
	}
	sumBody := func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += xs[i]
		}
		return s
	}
	if a := testing.AllocsPerRun(100, func() { ForWorker(len(xs), 1, forBody) }); a != 0 {
		t.Errorf("ForWorker at workers=1: %v allocs per call, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { ReduceSum(len(xs), 1, sumBody) }); a != 0 {
		t.Errorf("ReduceSum at workers=1: %v allocs per call, want 0", a)
	}
}
