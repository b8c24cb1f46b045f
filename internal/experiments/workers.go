package experiments

import (
	"runtime"

	"fpcc/internal/obs"
)

// This file is the inner half of the suite's two-level scheduler.
// The suite-level worker knob (SuiteConfig.Workers) shards
// experiments across outer workers; each experiment additionally
// receives an inner-worker grant — the bound it passes to the solver
// and ensemble pools it runs internally (Fokker-Planck row sweeps,
// SDE particle chunks, sweep cells). Outer and inner workers draw
// from one shared budget, GOMAXPROCS, so the suite never oversubscribes
// the machine: grant = clamp(budget/outer, 1, Width). Every engine is
// deterministic in its worker bound, so any (outer, inner) split
// renders byte-identical tables — the split moves wall-clock time
// only.

// Ctx is the per-experiment run context handed to every Experiment.Run:
// the experiment's recorder (nil when observability is off), its
// negotiated inner-worker grant and, under RunSuite, its open phase
// span. A nil *Ctx is valid — the zero-overhead default for direct
// invocations — and means no recorder and an unconstrained grant
// (GOMAXPROCS).
type Ctx struct {
	rec   *Recorder
	inner int
	// worker is the outer suite worker running the experiment, and
	// phase its open phase span ("setup", then "step" after Stepping);
	// RunSuite sets both, so phase is nil on a runner-less context.
	worker int
	phase  *obs.Span
}

// Stepping marks the experiment's setup/step boundary: it ends the
// "setup" span RunSuite opened before Run and opens "step", which the
// runner ends when Run returns. Every experiment calls it exactly
// once — after building its engines, or first thing if it builds them
// as it steps. A no-op on a nil or runner-less context.
func (c *Ctx) Stepping() {
	if c == nil || c.phase == nil {
		return
	}
	c.phase.End()
	*c.phase = c.rec.WorkerSpan("step", c.worker)
}

// Rec returns the experiment's recorder; nil on a nil context (the
// recorder's methods are nil-safe no-ops).
func (c *Ctx) Rec() *Recorder {
	if c == nil {
		return nil
	}
	return c.rec
}

// Inner returns the experiment's inner-worker bound: the
// SetInnerWorkers override when set, else the context's negotiated
// grant (0 = GOMAXPROCS, the direct-invocation default).
func (c *Ctx) Inner() int {
	if innerWorkersBound > 0 {
		return innerWorkersBound
	}
	if c == nil {
		return 0
	}
	return c.inner
}

// innerWorkersBound is the explicit global override of the negotiated
// per-experiment grants (benchreport -inner-workers, determinism
// tests).
var innerWorkersBound int

// SetInnerWorkers overrides the negotiated per-experiment inner-worker
// grants with a fixed bound (0 restores negotiation; this is the
// default). Call it before RunSuite or a direct experiment invocation;
// it must not be changed while a suite is running. Like every worker
// knob in this repository it affects wall-clock time only — the
// determinism tests pin the rendered tables byte-identical across
// worker counts and splits.
func SetInnerWorkers(n int) { innerWorkersBound = n }

// negotiateInner computes the per-experiment inner grant for a suite
// run with the given outer worker count (≥ 1): the shared budget is
// GOMAXPROCS, each of the outer workers runs one experiment at a
// time, and an experiment never receives more inner workers than the
// parallel width it declares (Width 0 = the experiment has no inner
// parallelism; it gets the grant anyway, harmlessly).
func negotiateInner(outer int, width int) int {
	budget := runtime.GOMAXPROCS(0)
	grant := budget / outer
	if grant < 1 {
		grant = 1
	}
	if width > 0 && grant > width {
		grant = width
	}
	return grant
}
