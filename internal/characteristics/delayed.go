package characteristics

import (
	"fmt"
	"math"

	"fpcc/internal/control"
)

// Exact tracer for the delayed AIMD system of Section 7:
//
//	dq/dt = λ − μ (reflected at 0),   dλ/dt = g_b(λ)
//
// where the active branch b (increase +C0 / decrease −C1·λ) follows
// the DELAYED congestion signal s(t) = 1{q(t−τ) > q̂}. Between
// control-branch switches the trajectory runs along the same
// closed-form arcs as the undelayed system — the Segment kinds that
// TraceExact makes, plus SegDrained, the empty queue held on the
// decrease branch — and the switch instants are exactly the
// q̂-crossing times of q shifted forward by τ. The tracer therefore
// advances arc by arc, locates each q̂ crossing with the exit-time
// finders TraceExact uses (quadratic roots on the parabola, the
// exponential arc's bracket-and-bisect), schedules the branch switch
// τ later, and reproduces the delay-induced limit cycle with no
// time-stepping error — the precise version of what Section 7 does
// graphically and what internal/fluid's DDE integrator does
// numerically (the two are cross-checked in the tests). It keeps its
// own driver: at τ = 0 it emits zero-length segments at each switch
// and has no steady stop at the Filippov equilibrium, so TraceExact
// stays the undelayed tracer.

// CycleMetrics summarizes the limit cycle from the trace tail.
type CycleMetrics struct {
	Period     float64 // mean spacing of the last up-crossings
	AmplitudeQ float64 // max q − min q over the last full cycle
	AmplitudeL float64 // max λ − min λ over the last full cycle
	Cycles     int     // number of full cycles observed
}

// Cycle measures the limit cycle from the final cycles of the path.
// It returns ok == false when fewer than three up-crossings were seen
// (no established cycle — e.g. τ = 0, which converges instead).
func (p *Path) Cycle() (CycleMetrics, bool) {
	n := len(p.UpCrossings)
	if n < 3 {
		return CycleMetrics{}, false
	}
	t0 := p.UpCrossings[n-2].T
	t1 := p.UpCrossings[n-1].T
	var m CycleMetrics
	m.Period = t1 - t0
	m.Cycles = n - 1
	// Sweep the final cycle densely using the closed forms.
	qMin, qMax := math.Inf(1), math.Inf(-1)
	lMin, lMax := math.Inf(1), math.Inf(-1)
	const steps = 2000
	for i := 0; i <= steps; i++ {
		pt := p.At(t0 + (t1-t0)*float64(i)/steps)
		qMin = math.Min(qMin, pt.Q)
		qMax = math.Max(qMax, pt.Q)
		lMin = math.Min(lMin, pt.Lambda)
		lMax = math.Max(lMax, pt.Lambda)
	}
	m.AmplitudeQ = qMax - qMin
	m.AmplitudeL = lMax - lMin
	return m, true
}

// arcEvent is an intra-arc occurrence located in closed form.
type arcEvent struct {
	dt   float64 // time from the arc start
	kind int
}

const (
	evNone      = iota // ran to the horizon
	evCrossUp          // q rose through q̂
	evCrossDown        // q fell through q̂
	evTouchZero        // q reached 0 while falling (λ < μ)
	evLiftoff          // stuck queue: λ rose to μ
)

// missesLevel reports whether end is off the level an event of the
// given kind puts the state on by more than the rounding of the
// event's exit time allows.
func missesLevel(kind int, qHat, mu float64, end Point) bool {
	level, got := qHat, end.Q
	switch kind {
	case evNone:
		return false
	case evTouchZero:
		level = 0
	case evLiftoff:
		level, got = mu, end.Lambda
	}
	return math.Abs(got-level) > 1e-6*(1+level)
}

// arcKind returns the segment kind of the delayed tracer's state: the
// active branch, and whether the queue is stuck at 0.
func arcKind(inc, stuck bool) SegmentKind {
	switch {
	case stuck && inc:
		return SegBoundary
	case stuck:
		return SegDrained
	case inc:
		return SegIncrease
	default:
		return SegDecrease
	}
}

// TraceExactDelayed integrates the delayed system from (q0, λ0) with
// constant pre-history q(t) = q0 for t < 0, for at most tEnd seconds
// or maxSegments arcs. It returns an error, with the path traced so
// far, when the segment budget runs out before tEnd or an arc ends
// where the trace cannot go on (see checkArcEnd).
func TraceExactDelayed(law control.AIMD, mu, tau float64, p0 Point, tEnd float64, maxSegments int) (*Path, error) {
	if err := checkInputs(law, mu, p0, tEnd, tau); err != nil {
		return nil, err
	}
	if maxSegments < 1 {
		return nil, fmt.Errorf("characteristics: need at least one segment, got %d", maxSegments)
	}
	path := &Path{Law: law, Mu: mu, Tau: tau}
	q, lam := p0.Q, p0.Lambda
	// The signal for t < tau reflects the constant pre-history.
	inc := p0.Q <= law.QHat
	stuck := q <= 0 && lam < mu
	t := 0.0
	// Scheduled branch switches: (time, newBranchIsIncrease).
	type swEvent struct {
		t   float64
		inc bool
	}
	var pending []swEvent

	for t < tEnd && len(path.Segments) < maxSegments {
		// Horizon: next scheduled switch or the end of the trace.
		horizon := tEnd
		if len(pending) > 0 && pending[0].t < horizon {
			horizon = pending[0].t
		}
		dur := horizon - t
		if dur < 0 {
			dur = 0
		}
		sg := Segment{Kind: arcKind(inc, stuck), T0: t, Start: Point{Q: q, Lambda: lam}}
		ev := nextArcEvent(law, mu, sg, dur)
		sg.Dur = ev.dt
		if ev.kind == evNone {
			sg.Dur = dur
		}
		end := sg.At(law, mu, sg.Dur)
		if err := checkArcEnd(law.QHat, t, sg.Start, end); err != nil {
			return path, err
		}
		// The switch below snaps an event's end onto its level, which
		// only rounding may separate them by.
		if missesLevel(ev.kind, law.QHat, mu, end) {
			return path, fmt.Errorf("characteristics: the arc from %+v at t=%v ends at %+v, off its event's level", sg.Start, t, end)
		}
		path.Segments = append(path.Segments, sg)
		q, lam = end.Q, end.Lambda
		t += sg.Dur
		// Snap boundary residue: bisection can land a hair past a
		// horizon-coincident event, leaving q infinitesimally negative
		// and the stuck flag unset; re-derive both from the state.
		if lam < 0 {
			lam = 0
		}
		if q < 1e-9*(1+law.QHat) {
			q = 0
			if lam < mu {
				stuck = true
			}
		}

		switch ev.kind {
		case evCrossUp:
			q = law.QHat // snap exactly onto the line
			path.UpCrossings = append(path.UpCrossings, Crossing{T: t, Lambda: lam})
			pending = append(pending, swEvent{t: t + tau, inc: false})
		case evCrossDown:
			q = law.QHat
			pending = append(pending, swEvent{t: t + tau, inc: true})
		case evTouchZero:
			q = 0
			stuck = true
		case evLiftoff:
			q = 0
			lam = mu
			stuck = false
		case evNone:
			if len(pending) > 0 && math.Abs(t-pending[0].t) < 1e-12*(1+t) {
				newInc := pending[0].inc
				pending = pending[1:]
				if newInc != inc {
					inc = newInc
					// Unstick if the new branch can move the queue.
					if stuck && lam >= mu {
						stuck = false
					}
				}
			} else {
				// Reached tEnd.
				return path, nil
			}
		}
		// A stuck queue only remains stuck while it cannot grow.
		if stuck && lam > mu {
			stuck = false
		}
	}
	if len(path.Segments) >= maxSegments && t < tEnd {
		return path, fmt.Errorf("characteristics: delayed trace exceeded %d segments at t=%v", maxSegments, t)
	}
	return path, nil
}

// nextArcEvent locates the earliest event of the arc sg (its kind and
// start; the duration is still unknown) within dur seconds, in closed
// form: quadratic roots on the increase branch, the exponential arc's
// bracket-and-bisect on the decrease branch.
func nextArcEvent(law control.AIMD, mu float64, sg Segment, dur float64) arcEvent {
	const eps = 1e-12
	if dur <= eps {
		return arcEvent{kind: evNone}
	}
	q, lam, qHat := sg.Start.Q, sg.Start.Lambda, law.QHat
	switch sg.Kind {
	case SegBoundary:
		// λ rises at C0; liftoff when it reaches μ.
		if lam < mu {
			if dt := (mu - lam) / law.C0; dt <= dur {
				return arcEvent{dt: dt, kind: evLiftoff}
			}
		}
		return arcEvent{kind: evNone}
	case SegDrained:
		return arcEvent{kind: evNone}
	case SegIncrease:
		// Parabola: q(t) = q + v0 t + C0 t²/2.
		v0 := lam - mu
		// q̂ crossing: earliest positive root.
		tHat := smallestPositiveRoot(0.5*law.C0, v0, q-qHat)
		// zero touch (only while falling).
		tZero := math.Inf(1)
		if v0 < 0 && q > 0 {
			tZero = smallestPositiveRoot(0.5*law.C0, v0, q)
		}
		if tZero < tHat && tZero <= dur {
			return arcEvent{dt: tZero, kind: evTouchZero}
		}
		if tHat <= dur {
			if v0+law.C0*tHat >= 0 {
				return arcEvent{dt: tHat, kind: evCrossUp}
			}
			return arcEvent{dt: tHat, kind: evCrossDown}
		}
		return arcEvent{kind: evNone}
	}
	// Decrease arc: rising while λ(t) > μ, then falling forever.
	arc := expArc{q0: q, l0: lam, c1: law.C1, mu: mu}
	tPeak := arc.peak()
	// Rising piece [0, tPeak]: can cross q̂ upward.
	if tPeak > eps && q < qHat {
		if hi := math.Min(tPeak, dur); arc.q(hi) >= qHat {
			return arcEvent{dt: arc.bisect(qHat, 0, hi, false), kind: evCrossUp}
		}
	}
	// Falling piece [tPeak, ∞): a downward q̂ crossing from above it,
	// else the empty queue from between 0 and q̂.
	if tPeak > dur {
		return arcEvent{kind: evNone}
	}
	level, kind := qHat, evCrossDown
	if qStart := arc.q(tPeak); qStart <= qHat {
		if qStart <= 0 {
			return arcEvent{kind: evNone}
		}
		level, kind = 0, evTouchZero
	}
	if dt, ok := arc.fallTo(level, tPeak); ok && dt <= dur {
		return arcEvent{dt: dt, kind: kind}
	}
	return arcEvent{kind: evNone}
}
