// Package sweep is the engine-agnostic parameter-sweep runner: it
// evaluates an arbitrary cell function over every cell of an
// N-dimensional grid of named parameter dimensions, sharding cells
// across a bounded pool of workers (parallel.EachWorker).
//
// The package owns the three properties every sweep in this
// repository relies on, independent of which engine (netsim, des,
// fluid, fokkerplanck, sde, dde, markov) evaluates the cells:
//
//   - Deterministic seeding: each cell's seed is a pure function of
//     (BaseSeed, cell index) via rng.Mix, so stochastic cells
//     reproduce exactly for any worker count.
//   - Order-independent aggregation: results are stored by cell index
//     as workers finish, so the aggregate — and any CSV/JSON rendered
//     from it — is byte-identical for any worker count.
//   - Deterministic failure: a failing cell stops work on every
//     higher-indexed cell not yet started (lower-indexed ones still
//     run), so the reported error is always the globally
//     lowest-indexed failure.
//
// Run is the generic entry point (any result type); RunRows adds a
// named-column result schema with byte-stable CSV and JSON emission.
package sweep

import (
	"fmt"
	"sync/atomic"

	"fpcc/internal/obs"
	"fpcc/internal/parallel"
	"fpcc/internal/rng"
)

// Dim is one named axis of a sweep grid.
type Dim struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

// Grid is an N-dimensional parameter grid: the cross product of its
// dimensions, enumerated row-major with the last dimension varying
// fastest.
type Grid struct {
	Dims []Dim
}

// Size returns the number of cells (the product of the value counts).
func (g Grid) Size() int {
	n := 1
	for _, d := range g.Dims {
		n *= len(d.Values)
	}
	return n
}

// Validate rejects degenerate grids: no dimensions, unnamed
// dimensions, dimensions without values, or a name used twice (each
// cell runs with one value per name, so a repeated name would label
// the row with values the cell never saw).
func (g Grid) Validate() error {
	if len(g.Dims) == 0 {
		return fmt.Errorf("sweep: grid has no dimensions")
	}
	for i, d := range g.Dims {
		if d.Name == "" {
			return fmt.Errorf("sweep: grid dimension with empty name")
		}
		if len(d.Values) == 0 {
			return fmt.Errorf("sweep: grid dimension %q has no values", d.Name)
		}
		for _, prev := range g.Dims[:i] {
			if prev.Name == d.Name {
				return fmt.Errorf("sweep: grid dimension %q appears twice", d.Name)
			}
		}
	}
	return nil
}

// Values decodes cell idx into one value per dimension (row-major:
// the last dimension varies fastest).
func (g Grid) Values(idx int) []float64 {
	vals := make([]float64, len(g.Dims))
	for k := len(g.Dims) - 1; k >= 0; k-- {
		n := len(g.Dims[k].Values)
		vals[k] = g.Dims[k].Values[idx%n]
		idx /= n
	}
	return vals
}

// CellSeed derives the deterministic seed of cell idx from the base
// seed: one SplitMix64 finalization along the golden-ratio sequence
// per cell, so adjacent cells get well-separated streams.
func CellSeed(base uint64, idx int) uint64 {
	return rng.Mix(base + 0x9e3779b97f4a7c15*uint64(idx))
}

// Cell is one point of the grid handed to the cell function: its
// index in grid order, the decoded dimension values, and the cell's
// deterministic seed.
type Cell struct {
	Index  int
	Values []float64
	Seed   uint64
}

// Config describes a sweep: the grid to cover, the base seed every
// cell seed derives from, and the worker bound.
type Config struct {
	Grid Grid
	// BaseSeed derives every cell seed; two sweeps with equal BaseSeed
	// and grid hand identical Cells to the cell function.
	BaseSeed uint64
	// Workers bounds the parallelism (0 means GOMAXPROCS).
	Workers int
	// Obs, when non-nil, records one "cell" span per evaluated cell,
	// attributed to the worker that ran it. It never affects results
	// — only the trace.
	Obs *obs.Recorder
}

// CellError reports the lowest-indexed failing cell of a sweep.
type CellError struct {
	Index int
	Err   error
}

func (e *CellError) Error() string { return fmt.Sprintf("cell %d: %v", e.Index, e.Err) }

// Unwrap exposes the cell function's error to errors.Is/As.
func (e *CellError) Unwrap() error { return e.Err }

// Map evaluates fn(0..n-1) on up to workers goroutines (0 means
// GOMAXPROCS) and returns the results in index order. Run and the
// experiment suite runner sit on it, and it sits on
// parallel.EachWorker: items are claimed one at a time in
// ascending index order from a shared counter, so uneven grids
// balance item by item. Results land by index, so the output is
// byte-identical for any worker count. On failure, items above the
// lowest failing index seen so far are skipped; because claims are
// ascending, every lower index has already been claimed and runs to
// completion, so the returned *CellError is always the globally
// lowest-indexed failure, deterministic regardless of worker count or
// scheduling.
func Map[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	if fn == nil {
		return nil, fmt.Errorf("sweep: nil function")
	}
	return MapWorker(n, workers, func(_, i int) (T, error) { return fn(i) })
}

// MapWorker is Map with the executing worker's 0-based index handed
// to fn alongside the item index — the hook for worker-attributed
// span timings (and for per-worker scratch). The worker index must
// not influence any result: scheduling varies run to run, only the
// item index is deterministic.
func MapWorker[T any](n, workers int, fn func(worker, i int) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("sweep: negative item count %d", n)
	}
	if fn == nil {
		return nil, fmt.Errorf("sweep: nil function")
	}
	results := make([]T, n)
	errs := make([]error, n)
	// lowestFail is the lowest failing index seen so far (n = none).
	var lowestFail atomic.Int64
	lowestFail.Store(int64(n))
	parallel.EachWorker(n, workers, func(w, idx int) {
		if int64(idx) > lowestFail.Load() {
			return
		}
		var err error
		results[idx], err = fn(w, idx)
		if err != nil {
			errs[idx] = err
			for {
				cur := lowestFail.Load()
				if int64(idx) >= cur || lowestFail.CompareAndSwap(cur, int64(idx)) {
					break
				}
			}
		}
	})
	for idx, err := range errs {
		if err != nil {
			return nil, &CellError{Index: idx, Err: err}
		}
	}
	return results, nil
}

// Run evaluates fn on every cell of the grid and returns the results
// in grid order. Cells run concurrently on up to cfg.Workers
// goroutines; the results (and any error, a *CellError for the
// lowest-indexed failing cell) are independent of the worker count.
func Run[T any](cfg Config, fn func(Cell) (T, error)) ([]T, error) {
	if err := cfg.Grid.Validate(); err != nil {
		return nil, err
	}
	if fn == nil {
		return nil, fmt.Errorf("sweep: nil cell function")
	}
	return MapWorker(cfg.Grid.Size(), cfg.Workers, func(w, idx int) (T, error) {
		sp := cfg.Obs.WorkerSpan("cell", w)
		defer sp.End()
		return fn(Cell{
			Index:  idx,
			Values: cfg.Grid.Values(idx),
			Seed:   CellSeed(cfg.BaseSeed, idx),
		})
	})
}
