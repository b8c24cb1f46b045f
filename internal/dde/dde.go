// Package dde integrates delay differential equations (DDEs) of the
// form
//
//	dy/dt = f(t, y(t), y(t−τ₁), y(t−τ₂), ...)
//
// with constant delays, which is exactly the structure of Section 7 of
// the paper: the sender adjusts its rate from the queue length it
// observed one feedback delay ago,
//
//	dλ/dt = g(Q(t−τ), λ(t)),    dQ/dt = λ(t) − μ.
//
// The integrator is the method of steps with a fixed-step RK4 core.
// Past states live in a bounded flat window of about maxDelay/h + 256
// samples (maxDelay the largest delay passed to Solve), pruned in place
// every 256 steps. Samples are one step h apart (only the last step may
// be shorter), so a delayed value is read by indexing the window from
// its oldest time and h, correcting that guess by a step or two, and
// interpolating linearly between the two bracketing samples. Every
// declared delay stays reachable; a Lag beyond every declared delay
// would read a pruned window, so Solve reports it as an error. Stage
// evaluations may only look back at least one step (the step size must
// not exceed the smallest delay), which keeps the scheme explicit.
//
// The recorded solution, Result, is ode.Trajectory: one flat store of
// times and state rows, presized from the step count and stride.
package dde

import (
	"fmt"
	"math"

	"fpcc/internal/ode"
)

// Lagger provides access to past state values during integration.
type Lagger interface {
	// Lag returns component i of the state at time t−delay, where t is
	// the time of the current right-hand-side evaluation. delay must
	// be one of the delays passed to Solve (or 0, or at most the
	// largest of them): the history window is sized from them, so a
	// larger delay makes Solve return an error after the step that
	// asked for it. A nonzero delay must be >= the solver's step size
	// (checked at Solve time for the declared delays).
	Lag(i int, delay float64) float64
}

// System is the right-hand side of a DDE: it writes dy/dt into dydt,
// reading the current state from y and past states through lag.
// Implementations must not retain the slices or the Lagger.
type System func(t float64, y []float64, lag Lagger, dydt []float64)

// History supplies the pre-initial state: y(t) for t <= t0. Solve
// only reads the returned slice, so the function may return the same
// slice on every call.
type History func(t float64) []float64

// pruneEvery is the number of steps between history prunes.
const pruneEvery = 256

// maxHint caps preallocation sizes computed from the interval, so a
// nonsensical horizon cannot request an absurd up-front allocation.
const maxHint = 1 << 24

// buffer is the solution history window: strictly increasing times,
// h apart but for a short last step, with their states stored flat,
// dim values per sample, pruned in place to the lookback window.
type buffer struct {
	times    []float64
	states   []float64 // sample k is states[k*dim : (k+1)*dim]
	dim      int
	h        float64 // step between stored samples
	history  History
	t0       float64
	curT     float64 // time of the current RHS evaluation
	maxDelay float64 // largest declared delay
	badDelay float64 // first undeclared delay requested, if bad
	bad      bool
}

// search returns the index of the first stored time >= t, or
// len(times) if there is none (as sort.SearchFloat64s does, NaN
// included). It guesses the index from times[0] and the step h, then
// walks to the exact one; only rounding in the accumulated times and
// the short last step put the guess off, by a step or two.
func (b *buffer) search(t float64) int {
	n := len(b.times)
	k := n
	if g := (t - b.times[0]) / b.h; g <= 0 {
		k = 0
	} else if g < float64(n) {
		k = int(g) + 1
	}
	for k < n && b.times[k] < t {
		k++
	}
	for k > 0 && b.times[k-1] >= t {
		k--
	}
	return k
}

// Lag implements Lagger via a step-indexed search + linear
// interpolation.
func (b *buffer) Lag(i int, delay float64) float64 {
	if !(delay <= b.maxDelay) && !b.bad {
		b.bad, b.badDelay = true, delay
	}
	t := b.curT - delay
	if t <= b.t0 {
		return b.history(t)[i]
	}
	k := b.search(t)
	if k == 0 {
		return b.states[i]
	}
	if k >= len(b.times) {
		// Delayed time beyond the newest sample can only happen by a
		// rounding hair when delay == step; clamp to the newest.
		return b.states[(len(b.times)-1)*b.dim+i]
	}
	tL, tR := b.times[k-1], b.times[k]
	yL, yR := b.states[(k-1)*b.dim+i], b.states[k*b.dim+i]
	if tR == tL {
		return yR
	}
	frac := (t - tL) / (tR - tL)
	return yL + frac*(yR-yL)
}

// append stores a copy of a sample.
func (b *buffer) append(t float64, y []float64) {
	b.times = append(b.times, t)
	b.states = append(b.states, y...)
}

// prune drops samples older than keepBefore, retaining one sample at
// or before it so interpolation at the window edge stays valid. It
// compacts in place, so the window's storage is reused.
func (b *buffer) prune(keepBefore float64) {
	k := b.search(keepBefore)
	if k <= 1 {
		return
	}
	drop := k - 1
	b.times = b.times[:copy(b.times, b.times[drop:])]
	b.states = b.states[:copy(b.states, b.states[drop*b.dim:])]
}

// sizeHint converts an estimated count to a preallocation size in
// [0, maxHint]; NaN and negative estimates give 0.
func sizeHint(n float64) int {
	if !(n >= 0) {
		return 0
	}
	return int(math.Min(n, maxHint))
}

// Result holds the sampled DDE solution.
type Result = ode.Trajectory

// Options configures Solve.
type Options struct {
	// Stride records every Stride-th accepted step into the Result
	// (plus the first and last). Zero means 1 (record every step).
	Stride int
	// Clamp, if non-nil, is applied to the state after every step —
	// used to enforce q >= 0 and λ >= 0 in the congestion systems.
	Clamp func(y []float64)
}

// Solve integrates the DDE from t0 to t1 with fixed RK4 steps of size
// h. delays must list every delay the system will request (used to
// validate h and to size the history window): a Lag beyond all of them
// is an error. history provides y(t) for t <= t0 (and y(t0) itself is
// history(t0)).
func Solve(f System, history History, delays []float64, t0, t1, h float64, opts Options) (*Result, error) {
	switch {
	case !(h > 0):
		return nil, fmt.Errorf("dde: non-positive step %v", h)
	case t1 < t0:
		return nil, fmt.Errorf("dde: reversed interval [%v, %v]", t0, t1)
	case history == nil:
		return nil, fmt.Errorf("dde: nil history")
	}
	maxDelay := 0.0
	for _, d := range delays {
		if !(d >= 0) {
			return nil, fmt.Errorf("dde: negative delay %v", d)
		}
		if d > 0 && d < h {
			return nil, fmt.Errorf("dde: step %v exceeds delay %v; the method of steps requires h <= min delay", h, d)
		}
		if d > maxDelay {
			maxDelay = d
		}
	}
	stride := opts.Stride
	if stride <= 0 {
		stride = 1
	}

	y0 := history(t0)
	dim := len(y0)
	y := append([]float64(nil), y0...)
	// A prune keeps the samples within maxDelay+2h of t plus one more,
	// at most maxDelay/h + 4, and pruneEvery samples arrive before the
	// next one; one spare absorbs rounding in the cut.
	steps := (t1 - t0) / h
	window := sizeHint(math.Min(maxDelay/h, steps) + pruneEvery + 5)
	buf := &buffer{
		times:    make([]float64, 0, window),
		states:   make([]float64, 0, window*dim),
		dim:      dim,
		h:        h,
		history:  history,
		t0:       t0,
		maxDelay: maxDelay,
	}
	buf.append(t0, y)

	res := ode.NewTrajectory(dim, sizeHint(steps/float64(stride)+3))
	res.Append(t0, y)

	k1 := make([]float64, dim)
	k2 := make([]float64, dim)
	k3 := make([]float64, dim)
	k4 := make([]float64, dim)
	tmp := make([]float64, dim)

	eval := func(t float64, y, dydt []float64) {
		buf.curT = t
		f(t, y, buf, dydt)
	}

	t := t0
	step := 0
	for t < t1 {
		hh := h
		if t+hh > t1 {
			hh = t1 - t
		}
		if hh < 1e-15*(1+math.Abs(t)) {
			break
		}
		eval(t, y, k1)
		for i := 0; i < dim; i++ {
			tmp[i] = y[i] + 0.5*hh*k1[i]
		}
		eval(t+0.5*hh, tmp, k2)
		for i := 0; i < dim; i++ {
			tmp[i] = y[i] + 0.5*hh*k2[i]
		}
		eval(t+0.5*hh, tmp, k3)
		for i := 0; i < dim; i++ {
			tmp[i] = y[i] + hh*k3[i]
		}
		eval(t+hh, tmp, k4)
		for i := 0; i < dim; i++ {
			y[i] += hh / 6 * (k1[i] + 2*k2[i] + 2*k3[i] + k4[i])
		}
		t += hh
		if opts.Clamp != nil {
			opts.Clamp(y)
		}
		buf.append(t, y)
		step++
		if step%stride == 0 || t >= t1 {
			res.Append(t, y)
		}
		if buf.bad {
			return nil, fmt.Errorf("dde: Lag requested delay %v, beyond every declared delay (largest %v)", buf.badDelay, maxDelay)
		}
		// Keep the history window: everything older than maxDelay plus
		// a couple of steps can go.
		if step%pruneEvery == 0 {
			buf.prune(t - maxDelay - 2*h)
		}
	}
	if res.Times[len(res.Times)-1] < t {
		res.Append(t, y)
	}
	return res, nil
}
