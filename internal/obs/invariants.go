package obs

import (
	"fmt"
	"math"
)

// Violation is a failed invariant check: the exact step, simulation
// time, and field where a conservation law broke, carried as an error
// so the engine's Step fails fast instead of rendering a poisoned
// table. Violationf builds one; it works on a nil recorder too (the
// check helpers below are usable standalone), recording and emitting
// only when a recorder is live.
type Violation struct {
	Scope string
	Step  int64
	T     float64
	Field string
	Msg   string
	// Recent is the flight-recorder dump: the events (oldest first)
	// the violating recorder emitted before the violation, captured
	// when Config.Invariants is on. It rides on the error so a CLI
	// can print the post-mortem context without the run having
	// streamed a full trace.
	Recent []Event
}

func (v *Violation) Error() string {
	s := fmt.Sprintf("obs: invariant violated at step %d (t=%g): %s: %s", v.Step, v.T, v.Field, v.Msg)
	if n := len(v.Recent); n > 0 {
		s += fmt.Sprintf(" (flight recorder: %d preceding events attached)", n)
	}
	return s
}

// Violationf records an invariant violation against the named field
// at the given step and simulation time, emits a "violation" event,
// and returns it as an error. With invariants on, the flight ring of
// recent events is attached to the Violation and dumped to the sink
// as one contiguous block — a "flight" header followed by the
// buffered events re-tagged "flight.<kind>" — immediately before the
// violation event.
func (r *Recorder) Violationf(step int64, t float64, field, format string, args ...any) error {
	if r == nil {
		return &Violation{Step: step, T: t, Field: field, Msg: fmt.Sprintf(format, args...)}
	}
	v := &Violation{Scope: r.scope, Step: step, T: t, Field: field, Msg: fmt.Sprintf(format, args...)}
	r.mu.Lock()
	r.violations++
	v.Recent = r.ringSnapshot()
	r.mu.Unlock()
	if len(v.Recent) > 0 {
		batch := make([]Event, 0, len(v.Recent)+1)
		batch = append(batch, Event{
			Kind: "flight", Scope: r.scope, Name: field, Step: step, T: t,
			Count: int64(len(v.Recent)),
			Msg:   "flight-recorder dump: events preceding the violation below",
		})
		for _, ev := range v.Recent {
			ev.Kind = "flight." + ev.Kind
			batch = append(batch, ev)
		}
		r.cfg.Sink.EmitBatch(batch)
	}
	r.emit(Event{Kind: "violation", Name: field, Step: step, T: t, Msg: v.Msg})
	return v
}

// CheckNonNegative verifies every value is finite and non-negative,
// reporting the first offending index. Density fields and queue
// vectors must satisfy it after every step (undershoot clipping runs
// before the check).
//
//fpcc:obsgate -- standalone pure-math check, must run on nil recorder (TestInvariantHelpers); Violationf is nil-safe
func (r *Recorder) CheckNonNegative(step int64, t float64, field string, vals []float64) error {
	for i, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return r.Violationf(step, t, field, "index %d is %v", i, v)
		}
		if v < 0 {
			return r.Violationf(step, t, field, "index %d = %g < 0", i, v)
		}
	}
	return nil
}

// CheckFinite verifies a scalar is finite and non-negative (queue
// lengths, rates).
//
//fpcc:obsgate -- standalone pure-math check, must run on nil recorder (TestInvariantHelpers); Violationf is nil-safe
func (r *Recorder) CheckFinite(step int64, t float64, field string, v float64) error {
	if !(v >= 0) || math.IsInf(v, 0) {
		return r.Violationf(step, t, field, "value %g outside [0, ∞)", v)
	}
	return nil
}

// CheckMass verifies a mass budget: |got − want| ≤ tol·max(1, |want|).
// The conservative transport sweeps guarantee ∫f = initial + clipped −
// outflow to rounding, so a violation means corrupted state, not
// discretization error.
//
//fpcc:obsgate -- standalone pure-math check, must run on nil recorder (TestInvariantHelpers); Violationf is nil-safe
func (r *Recorder) CheckMass(step int64, t float64, field string, got, want, tol float64) error {
	if math.IsNaN(got) || math.Abs(got-want) > tol*math.Max(1, math.Abs(want)) {
		return r.Violationf(step, t, field, "mass %.12g outside budget %.12g ± %g", got, want, tol)
	}
	return nil
}

// CheckCourant verifies an advection Courant number is within the
// stability limit (the engines check this themselves before stepping;
// the invariant re-verifies the margin on the state actually stepped).
//
//fpcc:obsgate -- standalone pure-math check, must run on nil recorder (TestInvariantHelpers); Violationf is nil-safe
func (r *Recorder) CheckCourant(step int64, t float64, field string, courant, limit float64) error {
	if math.IsNaN(courant) || courant > limit {
		return r.Violationf(step, t, field, "Courant number %.6g exceeds %.6g", courant, limit)
	}
	return nil
}

// CheckMonotoneTail verifies the last two entries of a timestamp
// series are non-decreasing — the O(1) per-step form of the
// queue-history monotonicity invariant (each step appends once, so
// checking the tail every step covers the whole series).
//
//fpcc:obsgate -- standalone pure-math check, must run on nil recorder (TestInvariantHelpers); Violationf is nil-safe
func (r *Recorder) CheckMonotoneTail(step int64, field string, times []float64) error {
	if n := len(times); n >= 2 && times[n-1] < times[n-2] {
		return r.Violationf(step, times[n-1], field,
			"history time regressed: %g recorded after %g", times[n-1], times[n-2])
	}
	return nil
}
