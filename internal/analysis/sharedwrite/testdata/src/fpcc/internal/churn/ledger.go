// Package churn is a fixture recreating the open-system mass ledger:
// per-class cumulative born/died session mass folded out of fork-join
// closures. The racy shape is the one the real birth–death kernels
// must avoid — accumulating the ledger through captured variables or
// fields from inside a concurrently-run closure instead of through
// chunk-indexed slots.
package churn

import (
	"fpcc/internal/parallel"
	"fpcc/internal/sweep"
)

// Ledger tracks cumulative born/died session mass per phase kernel.
type Ledger struct {
	born, died []float64
	totalBorn  float64
	workers    int
}

// FoldRacy folds per-kernel birth/death deltas into captured
// accumulators — the non-deterministic-reduction bug on both the
// scalar and the field target.
func (l *Ledger) FoldRacy(cells int) (float64, error) {
	balance := 0.0
	_, err := sweep.Map(cells, l.workers, func(i int) (float64, error) {
		balance += l.born[i] - l.died[i] // want `sharedwrite: assignment to captured variable "balance" inside a sweep.Map closure`
		l.totalBorn += l.born[i]         // want `sharedwrite: field write on captured "l"`
		return balance, nil
	})
	return balance, err
}

// FoldChunked writes each kernel's ledger balance into its own slot
// and reduces serially afterwards — the deterministic pattern, no
// findings.
func (l *Ledger) FoldChunked() float64 {
	balances := make([]float64, len(l.born))
	parallel.EachWorker(len(l.born), l.workers, func(_, i int) {
		balances[i] = l.born[i] - l.died[i]
	})
	total := 0.0
	for _, b := range balances {
		total += b
	}
	return total
}

// FoldReduced uses the framework's deterministic reduction for the
// same fold.
func (l *Ledger) FoldReduced() float64 {
	return parallel.ReduceSum(len(l.born), l.workers, func(lo, hi int) float64 {
		block := 0.0
		for i := lo; i < hi; i++ {
			block += l.born[i] - l.died[i]
		}
		return block
	})
}
