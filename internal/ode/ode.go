// Package ode provides the ordinary-differential-equation integrators
// used throughout the repository: the fixed-step explicit RK4 and the
// implicit trapezoid and BDF2 steppers, and one fixed-step driver,
// SolveWithEvents, that stops at the first sign change of an event
// function, located by bisection.
//
// The congestion-control dynamics analysed by the paper,
//
//	dq/dt = v,   dv/dt = g(q, λ)
//
// are piecewise smooth with a switching surface at q = q̂ (the rate
// controller changes branch there). Integrating across the switch with
// a smooth method loses accuracy, so SolveWithEvents locates each
// crossing to tolerance and restarts the integrator on the far side —
// the same technique the paper's characteristic analysis performs
// analytically.
//
// SolveWithEvents hands each sample to a caller's sink, so a caller that
// only reduces the trajectory never stores it; Trajectory, one flat
// store of times and state rows that package dde shares for its
// results, collects them with its Append (see Trajectory for how long
// a row read from it stays aliased).
package ode

import (
	"fmt"
	"math"
)

// System is the right-hand side of an autonomous-or-not ODE system
// dy/dt = f(t, y). Implementations write the derivative into dydt and
// must not retain either slice.
type System func(t float64, y, dydt []float64)

// Stepper advances a state by one step of a fixed method.
type Stepper interface {
	// Step advances y in place from t to t+h.
	Step(f System, t, h float64, y []float64)
}

// RK4 is the classic fourth-order Runge-Kutta method with
// preallocated stages. It allocates nothing per step.
type RK4 struct {
	k1, k2, k3, k4, tmp []float64
}

// NewRK4 returns an RK4 stepper for systems of dimension dim.
func NewRK4(dim int) *RK4 {
	return &RK4{
		k1:  make([]float64, dim),
		k2:  make([]float64, dim),
		k3:  make([]float64, dim),
		k4:  make([]float64, dim),
		tmp: make([]float64, dim),
	}
}

// Step implements Stepper.
func (r *RK4) Step(f System, t, h float64, y []float64) {
	n := len(y)
	f(t, y, r.k1)
	for i := 0; i < n; i++ {
		r.tmp[i] = y[i] + 0.5*h*r.k1[i]
	}
	f(t+0.5*h, r.tmp, r.k2)
	for i := 0; i < n; i++ {
		r.tmp[i] = y[i] + 0.5*h*r.k2[i]
	}
	f(t+0.5*h, r.tmp, r.k3)
	for i := 0; i < n; i++ {
		r.tmp[i] = y[i] + h*r.k3[i]
	}
	f(t+h, r.tmp, r.k4)
	for i := 0; i < n; i++ {
		y[i] += h / 6 * (r.k1[i] + 2*r.k2[i] + 2*r.k3[i] + r.k4[i])
	}
}

// Trajectory records sampled states of an integration in one flat
// store: Times[i] is the time of sample i, and its dim state values
// sit contiguously after those of sample i-1 in a single backing
// slice. Append grows both slices by doubling; a producer that knows
// its sample count presizes them with NewTrajectory.
//
// At and Last return a view of a row in that store, its capacity
// limited to the row, so appending to the view copies it instead of
// overwriting the next sample. A view aliases the store until the
// next Append that has to grow it: until then a write through the
// view changes the sample, afterwards the view is a stale copy.
type Trajectory struct {
	Times []float64

	states []float64 // sample i is states[i*dim : (i+1)*dim]
	dim    int
}

// NewTrajectory returns an empty trajectory of dim-dimensional states
// with room for n samples.
func NewTrajectory(dim, n int) *Trajectory {
	return &Trajectory{Times: make([]float64, 0, n), states: make([]float64, 0, n*dim), dim: dim}
}

// At returns the state at sample i.
func (tr *Trajectory) At(i int) (t float64, y []float64) {
	lo, hi := i*tr.dim, (i+1)*tr.dim
	return tr.Times[i], tr.states[lo:hi:hi]
}

// Len returns the number of samples.
func (tr *Trajectory) Len() int { return len(tr.Times) }

// Last returns the final time and state. It panics on an empty
// trajectory.
func (tr *Trajectory) Last() (t float64, y []float64) { return tr.At(len(tr.Times) - 1) }

// Append records a copy of y at time t. The first sample of a zero
// Trajectory fixes its dimension; every later y must have it.
func (tr *Trajectory) Append(t float64, y []float64) {
	if len(tr.Times) == 0 && tr.dim == 0 {
		tr.dim = len(y)
	}
	if len(y) != tr.dim {
		panic(fmt.Sprintf("ode: appending a %d-dimensional state to a %d-dimensional trajectory", len(y), tr.dim))
	}
	tr.Times = append(grow(tr.Times, 1), t)
	tr.states = append(grow(tr.states, tr.dim), y...)
}

// grow returns s with room for n more values, doubling its capacity
// (to at least 16n) when it has to reallocate.
func grow(s []float64, n int) []float64 {
	if len(s)+n <= cap(s) {
		return s
	}
	return append(make([]float64, 0, max(2*cap(s), 16*n)), s...)
}

// EventFunc evaluates a scalar event function e(t, y); an event is a
// sign change of e along the trajectory.
type EventFunc func(t float64, y []float64) float64

// Workspace is SolveWithEvents' working storage: the state before a
// step, a trial state for bisection, and the event values at the last
// sample. A caller that chains segments passes one Workspace to every
// call, so the driver allocates nothing once it has grown to the
// state and event counts. The zero value is ready to use.
type Workspace struct {
	prev, trial, evPrev []float64
}

// resize returns s with length n, reusing its backing array when it
// is large enough.
func resize(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// SolveWithEvents integrates dy/dt = f in place in y from t0 toward t1
// with fixed step h using stepper s, shortening the final step to
// land exactly on t1. It stops at the first sign change of any event
// function, located by bisection to time tolerance tol, leaves y at
// the crossing and returns the index of that event, or −1 when it
// reached t1 with none. Every sample after (t0, y), the crossing
// state included, is handed to sink in time order, so a caller can
// chain segments into one stream; (t0, y) itself is the caller's to
// record. sink must not retain y (a Trajectory's Append copies it). The
// event values computed after a step with no crossing carry over to
// the next step unevaluated, so an EventFunc must be a pure function
// of (t, y).
func SolveWithEvents(sink func(t float64, y []float64), f System, s Stepper, y []float64, t0, t1, h, tol float64,
	events []EventFunc, w *Workspace) (int, error) {
	if !(h > 0) {
		return -1, fmt.Errorf("ode: non-positive step %v", h)
	}
	if !(tol > 0) {
		return -1, fmt.Errorf("ode: non-positive event tolerance %v", tol)
	}
	if t1 < t0 {
		return -1, fmt.Errorf("ode: reversed interval [%v, %v]", t0, t1)
	}
	w.prev = resize(w.prev, len(y))
	w.trial = resize(w.trial, len(y))
	w.evPrev = resize(w.evPrev, len(events))
	prev, trial, evPrev := w.prev, w.trial, w.evPrev
	for i, e := range events {
		evPrev[i] = e(t0, y)
	}

	t := t0
	for t < t1 {
		step := h
		if t+step > t1 {
			step = t1 - t
		}
		if step < 1e-15*(1+math.Abs(t)) {
			break
		}
		copy(prev, y)
		s.Step(f, t, step, y)
		tNext := t + step

		// Check each event function for a sign change over [t, tNext].
		for i, e := range events {
			val := e(tNext, y)
			if evPrev[i] == 0 {
				evPrev[i] = val
				continue
			}
			if val != 0 && math.Signbit(val) == math.Signbit(evPrev[i]) {
				evPrev[i] = val
				continue
			}
			// Bisect on the step fraction to locate the crossing, until
			// the bracket is within tol or no float lies inside it.
			lo, hi := 0.0, 1.0
			for hi-lo > tol/step {
				mid := 0.5 * (lo + hi)
				if mid == lo || mid == hi {
					break
				}
				copy(trial, prev)
				s.Step(f, t, mid*step, trial)
				v := e(t+mid*step, trial)
				if v == 0 {
					lo, hi = mid, mid
					break
				}
				if math.Signbit(v) == math.Signbit(evPrev[i]) {
					lo = mid
				} else {
					hi = mid
				}
			}
			frac := 0.5 * (lo + hi)
			copy(y, prev)
			s.Step(f, t, frac*step, y)
			sink(t+frac*step, y)
			return i, nil
		}
		// No crossing: evPrev already holds every event at (tNext, y).
		t = tNext
		sink(t, y)
	}
	return -1, nil
}
