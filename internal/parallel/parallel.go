// Package parallel is the repository's one deterministic fork-join
// pool. EachWorker is the pool itself: workers claim indices in
// ascending order from a shared counter. For, ForWorker and ReduceSum
// run the tight loops inside a solver step (per-row advection,
// per-column diffusion solves, per-chunk particle updates) on it in
// fixed blocks, where a scheduling slot per item would dominate the
// work; sweep.Map runs parameter-grid cells and whole experiments on
// it one item at a time.
//
// The package owns two invariants every hot path built on it relies
// on:
//
//   - Fixed block partitioning: the index range [0, n) is split into
//     blocks whose boundaries depend only on n — never on the worker
//     count — so any block-indexed state (per-chunk rng streams,
//     per-block partial reductions) is identical for any number of
//     workers. Workers claim whole blocks from a shared counter;
//     only the scheduling of blocks varies with the worker count.
//
//   - Block-ordered reductions: ReduceSum accumulates one partial sum
//     per block and folds them in ascending block order after the
//     barrier, so floating-point reductions are bit-identical for any
//     worker count (though not necessarily equal to a single
//     straight-line sum — the grouping is per-block by construction).
//
// With workers <= 1 (or a single block) every entry point runs inline
// on the calling goroutine with no synchronization at all, so a
// serial caller pays nothing for the abstraction. With more workers,
// the calling goroutine runs worker slot 0 itself and EachWorker
// starts workers−1 goroutines for the other slots.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// minBlock is the smallest block size Blocks will produce: below this
// many items per block the per-block claim overhead is no longer
// amortized for the ~100ns-per-item loop bodies this package hosts.
const minBlock = 16

// maxBlocks caps the number of blocks: enough for load balance at any
// realistic worker count without making the claim counter hot.
const maxBlocks = 64

// Blocks returns the fixed block partition of [0, n): the block size
// and block count. The partition depends only on n (never on the
// worker count), which is what makes block-indexed reductions and
// per-block state deterministic under any parallelism.
func Blocks(n int) (size, count int) {
	if n <= 0 {
		return 0, 0
	}
	size = (n + maxBlocks - 1) / maxBlocks
	if size < minBlock {
		size = minBlock
	}
	count = (n + size - 1) / size
	return size, count
}

// Workers resolves a worker-count knob: values <= 0 mean GOMAXPROCS.
func Workers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// For runs fn over the fixed block partition of [0, n) on up to
// workers goroutines: fn(lo, hi) is called once per block with
// 0 <= lo < hi <= n. Blocks are claimed in ascending order from a
// shared counter, so the set of (lo, hi) calls — and therefore any
// state written by block index — is identical for any worker count.
// fn must not panic; writes from different blocks must not overlap.
// workers <= 0 means GOMAXPROCS; with one worker (or one block) fn
// runs inline on the calling goroutine.
func For(n, workers int, fn func(lo, hi int)) {
	ForWorker(n, workers, func(_, lo, hi int) { fn(lo, hi) })
}

// ForWorker is For with a worker slot: fn(w, lo, hi) receives the
// index w in [0, workers) of the goroutine running the block, for
// indexing per-worker scratch arenas (w is a scheduling artifact —
// anything that flows into results must depend only on lo and hi).
func ForWorker(n, workers int, fn func(w, lo, hi int)) {
	size, count := Blocks(n)
	if count == 0 {
		return
	}
	workers = Workers(workers)
	if workers > count {
		workers = count
	}
	if workers <= 1 {
		for b := 0; b < count; b++ {
			lo := b * size
			hi := min(lo+size, n)
			fn(0, lo, hi)
		}
		return
	}
	EachWorker(count, workers, func(w, b int) {
		lo := b * size
		fn(w, lo, min(lo+size, n))
	})
}

// EachWorker runs fn(w, i) once for every i in [0, n) on up to
// workers goroutines, claiming indices in ascending order from a
// shared counter, for coarse work items (particle chunks, solver
// classes, sweep cells) that are each already thousands of
// operations, where For's block batching would merge items that
// deserve their own scheduling slot. fn(w, i) must be self-contained
// per index, which makes EachWorker deterministic for any worker
// count. w in [0, workers) is the worker slot, for per-worker
// scratch, with the same caveat as ForWorker: w is a scheduling
// artifact. Slot 0 runs on the calling goroutine, concurrently with
// the others. Every other entry point of this package, and sweep.Map,
// forks and joins here. Because claims are ascending, once index i
// has been claimed every lower index has been claimed too.
func EachWorker(n, workers int, fn func(w, i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	j := new(join)
	j.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer j.wg.Done()
			j.claim(w, n, fn)
		}()
	}
	j.claim(0, n, fn)
	j.wg.Wait()
}

// join is the state one EachWorker call shares with the goroutines
// it starts: the claim counter and the barrier, in one allocation.
type join struct {
	next atomic.Int64
	wg   sync.WaitGroup
}

// claim runs fn(w, i) for each index i it claims until [0, n) is
// exhausted.
func (j *join) claim(w, n int, fn func(w, i int)) {
	for {
		i := int(j.next.Add(1)) - 1
		if i >= n {
			return
		}
		fn(w, i)
	}
}

// ReduceSum folds fn over the fixed block partition of [0, n):
// fn(lo, hi) returns the block's partial sum, and the partials are
// added in ascending block order after all blocks finish. The result
// is bit-identical for any worker count because both the block
// boundaries and the fold order are fixed by n alone.
func ReduceSum(n, workers int, fn func(lo, hi int) float64) float64 {
	size, count := Blocks(n)
	if count == 0 {
		return 0
	}
	if Workers(workers) <= 1 || count == 1 {
		// Inline serial path: same block partials folded in the same
		// ascending order, so the grouping — and the sum — matches
		// the parallel path bit-for-bit, without the partials array.
		var sum float64
		for b := 0; b < count; b++ {
			lo := b * size
			sum += fn(lo, min(lo+size, n))
		}
		return sum
	}
	partial := make([]float64, count)
	ForWorker(n, workers, func(_, lo, hi int) {
		partial[lo/size] = fn(lo, hi)
	})
	var sum float64
	for _, p := range partial {
		sum += p
	}
	return sum
}

// Scratch is a per-worker scratch arena: one lazily-built value per
// worker slot, for reusable buffers (tridiagonal workspaces, flux
// rows) inside ForWorker bodies. Values persist across calls on the
// same Scratch, so steady-state hot paths allocate nothing.
//
// The zero Scratch is not ready to use; create one with NewScratch.
// A Scratch is safe for use by the single fork-join running on it at
// a time (one goroutine per slot); it is not safe for two concurrent
// For calls to share one Scratch.
type Scratch[T any] struct {
	make  func() T
	slots []T
	built []bool
}

// NewScratch returns a Scratch whose slots are built on first use by
// mk. workers bounds the slot count (<= 0 means GOMAXPROCS).
func NewScratch[T any](workers int, mk func() T) *Scratch[T] {
	if mk == nil {
		panic("parallel: NewScratch with nil constructor")
	}
	w := Workers(workers)
	return &Scratch[T]{
		make:  mk,
		slots: make([]T, w),
		built: make([]bool, w),
	}
}

// Get returns worker slot w's scratch value, building it on first
// use.
func (s *Scratch[T]) Get(w int) T {
	if w < 0 || w >= len(s.slots) {
		panic(fmt.Sprintf("parallel: scratch slot %d outside [0, %d)", w, len(s.slots)))
	}
	if !s.built[w] {
		s.slots[w] = s.make()
		s.built[w] = true
	}
	return s.slots[w]
}
