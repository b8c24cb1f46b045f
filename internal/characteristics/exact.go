package characteristics

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"fpcc/internal/control"
)

// SegmentKind identifies the closed-form piece of an exact AIMD
// trajectory. Each kind is one smooth piece of the piecewise field:
// the law's two branches away from the empty queue, the same two
// branches with the queue stuck at 0, and the fixed point.
type SegmentKind int

const (
	// SegIncrease is a parabolic arc on the increase branch:
	// λ(t) = λ0 + C0·t, q(t) = q0 + v0·t + C0·t²/2.
	SegIncrease SegmentKind = iota
	// SegDecrease is an exponential arc on the decrease branch:
	// λ(t) = λ0·e^(−C1·t), q(t) = q0 + (λ0/C1)(1−e^(−C1·t)) − μ·t.
	SegDecrease
	// SegBoundary is the sticky empty-queue piece of the increase
	// branch: q ≡ 0 while λ(t) = λ0 + C0·t climbs back to μ (the
	// paper's convention η = 0 when Q = 0, λ < μ).
	SegBoundary
	// SegDrained is the empty queue on the decrease branch: q ≡ 0
	// while λ(t) = λ0·e^(−C1·t) keeps falling. Only delayed feedback
	// holds the decrease branch after the queue has emptied, so only
	// TraceExactDelayed makes it.
	SegDrained
	// SegSteady is the fixed point (q̂, μ): the trajectory has reached
	// Theorem 1's limit and stays put (a Filippov sliding
	// equilibrium of the piecewise field).
	SegSteady
)

// String implements fmt.Stringer.
func (k SegmentKind) String() string {
	switch k {
	case SegIncrease:
		return "increase"
	case SegDecrease:
		return "decrease"
	case SegBoundary:
		return "boundary"
	case SegDrained:
		return "drained"
	case SegSteady:
		return "steady"
	default:
		return fmt.Sprintf("SegmentKind(%d)", int(k))
	}
}

// kindOf is the region rule of the undelayed field: the kind of the
// smooth piece that leaves p. A point exactly on the switching line
// moving upward (λ > μ) belongs to the decrease region, since for any
// t > 0 it has q > q̂.
func kindOf(p Point, qHat, mu float64) SegmentKind {
	switch {
	case p.Q <= 0 && p.Lambda < mu:
		return SegBoundary
	case p.Q < qHat || (p.Q == qHat && p.Lambda <= mu):
		return SegIncrease
	default:
		return SegDecrease
	}
}

// Segment is one closed-form piece of an exact trajectory, valid for
// local time in [0, Dur] measured from absolute time T0.
type Segment struct {
	Kind  SegmentKind
	T0    float64 // absolute start time
	Dur   float64 // duration
	Start Point   // state at T0
}

// At evaluates the segment at local time s in [0, Dur] under its
// path's law and service rate mu.
func (sg Segment) At(law control.AIMD, mu, s float64) Point {
	switch sg.Kind {
	case SegIncrease:
		v0 := sg.Start.Lambda - mu
		return Point{
			Q:      sg.Start.Q + v0*s + 0.5*law.C0*s*s,
			Lambda: sg.Start.Lambda + law.C0*s,
		}
	case SegDecrease:
		e := math.Exp(-law.C1 * s)
		return Point{
			Q:      sg.Start.Q + sg.Start.Lambda/law.C1*(1-e) - mu*s,
			Lambda: sg.Start.Lambda * e,
		}
	case SegBoundary:
		return Point{Q: 0, Lambda: sg.Start.Lambda + law.C0*s}
	case SegDrained:
		return Point{Q: 0, Lambda: sg.Start.Lambda * math.Exp(-law.C1*s)}
	case SegSteady:
		return sg.Start
	default:
		panic(fmt.Sprintf("characteristics: unknown segment kind %v", sg.Kind))
	}
}

// Path is a piecewise-closed-form AIMD trajectory, traced by
// TraceExact (τ = 0) or TraceExactDelayed. Switching times between
// segments are located analytically (quadratic roots on the increase
// branch, bracketed bisection on the decrease branch), so the path
// carries no time-discretization error — this mirrors the paper's own
// Section 5 treatment, which solves d²q/dt² = C0 exactly between
// crossings.
type Path struct {
	Law      control.AIMD
	Mu       float64
	Tau      float64 // feedback delay; 0 for TraceExact
	Segments []Segment
	// UpCrossings are the passages of q upward through q̂ with λ > μ,
	// in order: the Poincaré-section hits of Theorem 1's contraction
	// argument, one per cycle once a delayed limit cycle is reached.
	UpCrossings []Crossing
}

// TotalTime returns the absolute end time of the path.
func (p *Path) TotalTime() float64 {
	if len(p.Segments) == 0 {
		return 0
	}
	last := p.Segments[len(p.Segments)-1]
	return last.T0 + last.Dur
}

// At evaluates the path at absolute time t, clamping beyond the ends.
// Inside, it evaluates the first segment whose end is at or after t;
// several segments of a Zeno spiral can share one end time.
func (p *Path) At(t float64) Point {
	n := len(p.Segments)
	if n == 0 {
		return Point{}
	}
	if t <= p.Segments[0].T0 {
		return p.Segments[0].Start
	}
	k := sort.Search(n, func(i int) bool {
		sg := p.Segments[i]
		return sg.T0+sg.Dur >= t
	})
	if k == n {
		last := p.Segments[n-1]
		return last.At(p.Law, p.Mu, last.Dur)
	}
	sg := p.Segments[k]
	return sg.At(p.Law, p.Mu, t-sg.T0)
}

// Sample evaluates the path at n+1 evenly spaced times covering
// [0, TotalTime] and returns the times and points.
func (p *Path) Sample(n int) (ts []float64, pts []Point) {
	if n < 1 {
		n = 1
	}
	total := p.TotalTime()
	ts = make([]float64, n+1)
	pts = make([]Point, n+1)
	for i := 0; i <= n; i++ {
		t := total * float64(i) / float64(n)
		ts[i] = t
		pts[i] = p.At(t)
	}
	return ts, pts
}

// ErrNoProgress is returned when the exact tracer cannot advance
// (degenerate parameters such as a trajectory starting and staying at
// the equilibrium).
var ErrNoProgress = errors.New("characteristics: trajectory made no progress")

// checkInputs is the input check of all three tracers. It rejects a
// start point that is not finite and non-negative, a μ that is not
// finite and positive, a horizon that is not finite and positive, a
// delay τ that is not finite and non-negative, and a law whose q̂ is
// not finite and non-negative. An AIMD law must also pass
// control.NewAIMD's rule (C0 and C1 in (0, ∞)), which a literal
// control.AIMD bypasses.
func checkInputs(law control.Law, mu float64, p0 Point, horizon, tau float64) error {
	nonNeg := func(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }
	switch {
	case !nonNeg(p0.Q) || !nonNeg(p0.Lambda):
		return fmt.Errorf("characteristics: invalid initial state %+v", p0)
	case !(mu > 0) || math.IsInf(mu, 1):
		return fmt.Errorf("characteristics: service rate must be finite and positive, got %v", mu)
	case !(horizon > 0) || math.IsInf(horizon, 1):
		return fmt.Errorf("characteristics: horizon must be finite and positive, got %v", horizon)
	case !nonNeg(tau):
		return fmt.Errorf("characteristics: delay must be finite and non-negative, got %v", tau)
	case !nonNeg(law.Target()):
		return fmt.Errorf("characteristics: target queue must be finite and non-negative, got %v", law.Target())
	}
	if l, ok := law.(control.AIMD); ok {
		_, err := control.NewAIMD(l.C0, l.C1, l.QHat)
		return err
	}
	return nil
}

// finite reports whether both coordinates of p are finite.
func finite(p Point) bool {
	return !math.IsNaN(p.Q) && !math.IsInf(p.Q, 0) && !math.IsNaN(p.Lambda) && !math.IsInf(p.Lambda, 0)
}

// checkArcEnd vets the end of an arc from start at time t before a
// tracer continues from it: it must be finite, and below the empty
// queue by no more than rounding (scaled by the target q̂). An exit
// time located to 1e-14 s misses its level by that much times the
// queue's slope, which a huge μ makes huge.
func checkArcEnd(qHat, t float64, start, end Point) error {
	if !finite(end) || end.Q < -1e-9*(1+qHat) {
		return fmt.Errorf("characteristics: the arc from %+v at t=%v ends at %+v", start, t, end)
	}
	return nil
}

// TraceExact integrates the AIMD system from p0 for at most maxTime
// seconds or maxSegments closed-form pieces, whichever comes first.
// It returns an error, with the path traced so far, when an arc ends
// where the trace cannot go on (see checkArcEnd).
func TraceExact(law control.AIMD, mu float64, p0 Point, maxTime float64, maxSegments int) (*Path, error) {
	if err := checkInputs(law, mu, p0, maxTime, 0); err != nil {
		return nil, err
	}
	if maxSegments < 1 {
		return nil, fmt.Errorf("characteristics: need at least one segment, got %d", maxSegments)
	}
	path := &Path{Law: law, Mu: mu}
	cur := p0
	t := 0.0
	atEquilibrium := func(p Point) bool {
		return math.Abs(p.Q-law.QHat) < 1e-12*(1+law.QHat) &&
			math.Abs(p.Lambda-mu) < 1e-12*(1+mu)
	}
	for len(path.Segments) < maxSegments && t < maxTime {
		// At the (Filippov sliding) fixed point the trajectory stays
		// put forever; emit a single steady segment.
		if atEquilibrium(cur) {
			path.Segments = append(path.Segments, Segment{
				Kind: SegSteady, T0: t, Dur: maxTime - t,
				Start: Point{Q: law.QHat, Lambda: mu},
			})
			break
		}
		sg, err := nextSegment(law, mu, cur, t)
		if err != nil {
			return path, err
		}
		if sg.Dur <= 0 {
			return path, ErrNoProgress
		}
		last := t+sg.Dur > maxTime
		if last {
			sg.Dur = maxTime - t
		}
		end := sg.At(law, mu, sg.Dur)
		if err := checkArcEnd(law.QHat, t, cur, end); err != nil {
			return path, err
		}
		if sg.Kind == SegDecrease && len(path.Segments) > 0 {
			path.UpCrossings = append(path.UpCrossings, Crossing{T: t, Lambda: cur.Lambda})
		}
		path.Segments = append(path.Segments, sg)
		if last {
			break
		}
		t += sg.Dur
		cur = end
		// Snap tiny numerical residue onto the switching manifolds so
		// the next segment classifies cleanly.
		if math.Abs(cur.Q-law.QHat) < 1e-12*(1+law.QHat) {
			cur.Q = law.QHat
		}
		if cur.Q < 1e-12*(1+law.QHat) {
			cur.Q = 0
		}
		if cur.Lambda < 0 {
			cur.Lambda = 0
		}
	}
	if len(path.Segments) == 0 {
		return path, ErrNoProgress
	}
	return path, nil
}

// nextSegment constructs the closed-form segment leaving state cur at
// absolute time t0, with its exact duration to the next switching
// event.
func nextSegment(law control.AIMD, mu float64, cur Point, t0 float64) (Segment, error) {
	sg := Segment{Kind: kindOf(cur, law.QHat, mu), T0: t0, Start: cur}
	var err error
	switch sg.Kind {
	case SegBoundary:
		// Sticky empty queue: λ climbs at C0 until it reaches μ.
		sg.Start = Point{Q: 0, Lambda: cur.Lambda}
		sg.Dur = (mu - cur.Lambda) / law.C0
	case SegIncrease:
		// Parabola until q = q̂ (rising) or q = 0 (falling with λ < μ).
		sg.Dur, err = increaseExitTime(law, mu, cur)
	default:
		// Exponential arc until q falls back to q̂.
		sg.Dur, err = decreaseExitTime(law, mu, cur)
	}
	return sg, err
}

// increaseExitTime returns the first positive time at which the
// parabola q(t) = q0 + v0 t + C0 t²/2 exits the increase region:
// either it rises to q̂ or it falls to 0 with v < 0 (only possible when
// v0 < 0).
func increaseExitTime(law control.AIMD, mu float64, cur Point) (float64, error) {
	c0 := law.C0
	v0 := cur.Lambda - mu
	// Candidate 1: q(t) = q̂, i.e. (C0/2)t² + v0 t + (q0 − q̂) = 0.
	tHat := smallestPositiveRoot(0.5*c0, v0, cur.Q-law.QHat)
	// Candidate 2 (only when falling): q(t) = 0.
	tZero := math.Inf(1)
	if v0 < 0 && cur.Q > 0 {
		tZero = smallestPositiveRoot(0.5*c0, v0, cur.Q)
	}
	dur := math.Min(tHat, tZero)
	if math.IsInf(dur, 1) {
		return 0, fmt.Errorf("characteristics: increase segment from %+v never exits", cur)
	}
	return dur, nil
}

// smallestPositiveRoot returns the smallest strictly positive root of
// a·t² + b·t + c = 0, or +Inf when none exists. A tiny positive root
// caused by starting exactly on the manifold is rejected only when the
// trajectory is moving away from it, which the quadratic handles
// naturally via root ordering.
func smallestPositiveRoot(a, b, c float64) float64 {
	const eps = 1e-14
	if a == 0 {
		if b == 0 {
			return math.Inf(1)
		}
		t := -c / b
		if t > eps {
			return t
		}
		return math.Inf(1)
	}
	disc := b*b - 4*a*c
	if disc < 0 {
		return math.Inf(1)
	}
	sq := math.Sqrt(disc)
	// Numerically stable quadratic roots.
	var t1, t2 float64
	if b >= 0 {
		t1 = (-b - sq) / (2 * a)
		t2 = 2 * c / (-b - sq)
	} else {
		t1 = 2 * c / (-b + sq)
		t2 = (-b + sq) / (2 * a)
	}
	lo, hi := math.Min(t1, t2), math.Max(t1, t2)
	if lo > eps {
		return lo
	}
	if hi > eps {
		return hi
	}
	return math.Inf(1)
}

// decreaseExitTime returns the time for the exponential arc to fall
// back to q = q̂. The arc starts at q0 >= q̂, rises while λ > μ, then
// falls without bound, so a crossing always exists; it is bracketed
// and bisected after the peak, where the arc falls.
func decreaseExitTime(law control.AIMD, mu float64, cur Point) (float64, error) {
	arc := expArc{q0: cur.Q, l0: cur.Lambda, c1: law.C1, mu: mu}
	lo := arc.peak()
	if arc.q(lo) < law.QHat {
		// Entered the region already past the peak (e.g. started
		// inside with λ <= μ); the crossing is immediate unless q0 > q̂.
		if cur.Q <= law.QHat {
			return 0, fmt.Errorf("characteristics: decrease segment started outside its region: %+v", cur)
		}
		lo = 0
	}
	t, ok := arc.fallTo(law.QHat, lo)
	if !ok {
		return 0, fmt.Errorf("characteristics: no return crossing found from %+v", cur)
	}
	if !(t > 0) {
		return 0, fmt.Errorf("characteristics: invalid decrease exit time %v from %+v", t, cur)
	}
	return t, nil
}

// expArc is the queue on the decrease branch from (q0, λ0):
// q(t) = q0 + (λ0/C1)(1−e^(−C1·t)) − μ·t. It rises while λ(t) > μ,
// peaks at t* = ln(λ0/μ)/C1 (0 when λ0 <= μ), then falls without
// bound.
type expArc struct{ q0, l0, c1, mu float64 }

func (a expArc) q(t float64) float64 {
	return a.q0 + a.l0/a.c1*(1-math.Exp(-a.c1*t)) - a.mu*t
}

// peak returns the time t* at which the arc stops rising.
func (a expArc) peak() float64 {
	if a.l0 > a.mu {
		return math.Log(a.l0/a.mu) / a.c1
	}
	return 0
}

// fallTo returns the time at which the arc, above level at lo and
// falling from there on, reaches level. The bracket doubles from
// max(lo, 1/C1) until the arc is at or below level; ok is false when
// it passes 1e12 s.
func (a expArc) fallTo(level, lo float64) (t float64, ok bool) {
	hi := math.Max(lo, 1/a.c1)
	for a.q(hi) > level {
		hi *= 2
		if hi > 1e12 {
			return 0, false
		}
	}
	return a.bisect(level, lo, hi, true), true
}

// bisect narrows [lo, hi] onto the time at which the arc crosses
// level: falling through it (above at lo) when falling, else rising
// (at or below at lo).
func (a expArc) bisect(level, lo, hi float64, falling bool) float64 {
	for i := 0; i < 200 && hi-lo > 1e-14*(1+hi); i++ {
		mid := 0.5 * (lo + hi)
		if (a.q(mid) > level) == falling {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}
