// Package parallel is a fixture recreating the fork-join package:
// the entry points sharedwrite watches, run serially here. Its own
// internals write captured state by design and are exempt.
package parallel

// For splits [0,n) into blocks and runs fn per block.
func For(n, workers int, fn func(lo, hi int)) {
	done := 0
	fn(0, n)
	done++ // exempt package: the framework owns its synchronization
	_ = done
}

// ForWorker is For with the worker index.
func ForWorker(n, workers int, fn func(w, lo, hi int)) { fn(0, 0, n) }

// EachWorker runs fn per index with the worker index.
func EachWorker(n, workers int, fn func(w, i int)) {
	for i := 0; i < n; i++ {
		fn(0, i)
	}
}

// ReduceSum sums fn over blocks.
func ReduceSum(n, workers int, fn func(lo, hi int) float64) float64 {
	return fn(0, n)
}

// Scratch is per-worker storage.
type Scratch[T any] struct{ slots []T }

// NewScratch builds per-worker slots.
func NewScratch[T any](workers int, mk func() T) *Scratch[T] {
	s := &Scratch[T]{slots: make([]T, 0, workers)}
	for i := 0; i < workers; i++ {
		s.slots = append(s.slots, mk())
	}
	return s
}

// Get returns worker w's slot.
func (s *Scratch[T]) Get(w int) T { return s.slots[w] }
