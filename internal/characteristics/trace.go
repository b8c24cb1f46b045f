package characteristics

import (
	"fmt"
	"math"

	"fpcc/internal/control"
	"fpcc/internal/ode"
)

// Trace integrates the characteristic system dq/dt = v, dλ/dt = g
// numerically for an arbitrary law using RK4, handing each sample of
// the trajectory, with state [q, λ], to visit in time order: first
// (0, p0), then every accepted step. visit must not retain y; an
// ode.Trajectory's Append collects the whole trajectory, and Section,
// Settling and Overshoot reduce it as it streams.
//
// The field is discontinuous across the switching line q = q̂ and the
// empty-queue boundary, so integrating it naively loses accuracy: RK4
// stages near a boundary sample the wrong branch. Trace therefore
// freezes the active branch, integrates the resulting smooth field
// until the region-exit event (located by bisection), snaps the state
// onto the boundary and switches branch — the numeric analogue of
// TraceExact's closed-form segment chain, with the same region rule
// (kindOf), and valid for any Law whose two branches are individually
// smooth. It holds back one sample, so visit sees each segment's end
// after the snap. It returns an error when a sample is not finite or
// lies below the empty queue by more than rounding, as a step too long
// for RK4's stability makes it; visit may then have seen samples of
// the failing segment.
//
// For AIMD prefer TraceExact, which is free of time-stepping error;
// Trace exists for the laws without closed-form arcs and as an
// independent cross-check of the exact tracer.
func Trace(law control.Law, mu float64, p0 Point, t1, dt float64, visit func(t float64, y []float64)) error {
	if err := checkInputs(law, mu, p0, t1, 0); err != nil {
		return err
	}
	if !(dt > 0) || math.IsInf(dt, 1) {
		return fmt.Errorf("characteristics: step must be finite and positive, got %v", dt)
	}
	qHat := law.Target()
	// Branch-frozen right-hand sides, one per region kindOf returns.
	// The q argument passed to the law is clamped to the active
	// branch's side so that stage evaluations that numerically wander
	// across the boundary still see the frozen branch.
	qAbove := math.Nextafter(qHat, math.Inf(1))
	rhs := [...]ode.System{
		SegIncrease: func(t float64, y, dydt []float64) {
			dydt[0] = y[1] - mu
			dydt[1] = law.Drift(math.Min(y[0], qHat), y[1])
		},
		SegDecrease: func(t float64, y, dydt []float64) {
			dydt[0] = y[1] - mu
			dydt[1] = law.Drift(math.Max(y[0], qAbove), y[1])
		},
		SegBoundary: func(t float64, y, dydt []float64) {
			dydt[0] = 0
			dydt[1] = law.Drift(0, y[1])
		},
	}
	// Each region's exit events; the increase region's are the
	// switching line (index 0) and the empty queue (index 1).
	atTarget := func(_ float64, y []float64) float64 { return y[0] - qHat }
	exits := [...][]ode.EventFunc{
		SegIncrease: {atTarget, func(_ float64, y []float64) float64 { return y[0] }},
		SegDecrease: {atTarget},
		SegBoundary: {func(_ float64, y []float64) float64 { return y[1] - mu }},
	}

	stepper := ode.NewRK4(2)
	var work ode.Workspace
	tol := math.Min(dt*1e-6, 1e-9)
	y := []float64{p0.Q, p0.Lambda}

	// The held-back sample: the latest one, not yet visited because a
	// snap may still move it. A step too long for RK4's stability
	// (C1·dt above about 2.8 on the AIMD decrease branch) can overflow
	// or carry the queue far below empty without any exit event seeing
	// it, so every sample a segment adds is held to the exact tracers'
	// rule once it is final; checked marks a held sample that needs no
	// further check, and bad keeps the first failure.
	var (
		heldT   float64
		held    = [2]float64{p0.Q, p0.Lambda}
		checked = true
		from    Point
		t0      float64
		bad     error
	)
	check := func() {
		if !checked && bad == nil {
			bad = checkArcEnd(qHat, t0, from, Point{Q: held[0], Lambda: held[1]})
		}
		checked = true
	}
	hold := func(t float64, y []float64) {
		check()
		visit(heldT, held[:])
		heldT, held[0], held[1], checked = t, y[0], y[1], false
	}

	// Near the Filippov equilibrium (q̂, μ) region cycles become
	// arbitrarily short (the spiral converges in infinite time with
	// exponentially accelerating crossings). An arc that completes
	// within a single step is invisible to endpoint sign checks, so
	// once the state is within the amplitude an arc can traverse in
	// ~2 steps we hold it constant, matching TraceExact's steady
	// segment. The radius scales with dt: refining the step refines
	// the hold ball.
	gUp := math.Abs(law.Drift(qHat, mu))
	gDn := math.Abs(law.Drift(qAbove, mu))
	eqTol := 2*dt*math.Max(gUp, gDn) + 1e-9*(1+qHat+mu)
	t := 0.0
	for t < t1 {
		if math.Abs(y[0]-qHat) < eqTol && math.Abs(y[1]-mu) < eqTol {
			y[0], y[1] = qHat, mu
			hold(t1, y)
			break
		}
		from, t0 = Point{Q: y[0], Lambda: y[1]}, t
		kind := kindOf(from, qHat, mu)
		// The segment's samples follow the held one, taken at t.
		exit, err := ode.SolveWithEvents(hold, rhs[kind], stepper, y, t, t1, dt, tol, exits[kind], &work)
		if err != nil {
			return err
		}
		if bad != nil {
			return bad
		}
		t = heldT
		// Snap exactly onto the boundary the event located.
		switch {
		case exit < 0: // ran to the horizon without leaving the region
		case kind == SegBoundary:
			y[0], y[1] = 0, mu
		case exit == 0: // the switching line
			y[0] = qHat
		default: // the increase region's empty-queue boundary
			y[0] = 0
		}
		held[0], held[1] = y[0], y[1] // the held sample is the segment's last
		if check(); bad != nil {
			return bad
		}
		if exit < 0 {
			break
		}
		if y[0] < 0 {
			y[0] = 0
		}
		if y[1] < 0 {
			y[1] = 0
		}
	}
	visit(heldT, held[:])
	return nil
}

// Crossing records one upward passage of the trajectory through the
// Poincaré section q = q̂ (moving from the increase region into the
// decrease region).
type Crossing struct {
	T      float64 // time of the crossing
	Lambda float64 // rate at the crossing; amplitude is Lambda − μ
}

// Section collects the Poincaré-section hits of a trajectory with
// state [q, λ] as its samples stream in through Add: the passages
// where q crosses QHat from below with λ > Mu. Crossing times and
// rates are linearly interpolated between samples.
type Section struct {
	QHat, Mu  float64
	Crossings []Crossing

	prevT float64
	prev  [2]float64
	seen  bool
}

// Add takes the next sample (t, y) of the trajectory.
func (s *Section) Add(t float64, y []float64) {
	if s.seen {
		q0, q1 := s.prev[0], y[0]
		if q0 <= s.QHat && q1 > s.QHat {
			// Interpolate the crossing.
			frac := 0.0
			if q1 != q0 {
				frac = (s.QHat - q0) / (q1 - q0)
			}
			lam := s.prev[1] + frac*(y[1]-s.prev[1])
			if lam > s.Mu {
				s.Crossings = append(s.Crossings, Crossing{T: s.prevT + frac*(t-s.prevT), Lambda: lam})
			}
		}
	}
	s.prevT, s.prev[0], s.prev[1], s.seen = t, y[0], y[1], true
}

// Behavior classifies the long-run behaviour of a trajectory from the
// amplitude sequence of its Poincaré map.
type Behavior int

const (
	// Converging: amplitudes contract toward zero — the convergent
	// spiral of Theorem 1 (Figure 3).
	Converging Behavior = iota
	// NeutralCycle: amplitudes neither grow nor shrink — a closed
	// orbit, as AIAD produces without delay.
	NeutralCycle
	// Diverging: amplitudes grow — an outward spiral, as delayed
	// feedback produces until it saturates into a limit cycle.
	Diverging
	// Inconclusive: fewer than three crossings were observed.
	Inconclusive
)

// String implements fmt.Stringer.
func (b Behavior) String() string {
	switch b {
	case Converging:
		return "converging"
	case NeutralCycle:
		return "neutral-cycle"
	case Diverging:
		return "diverging"
	case Inconclusive:
		return "inconclusive"
	default:
		return fmt.Sprintf("Behavior(%d)", int(b))
	}
}

// Classify inspects the Poincaré amplitude sequence aₖ = λₖ − μ and
// returns the behaviour plus the total amplitude ratio
// R = a_last / a_first over the observation window; R < 1−tol is
// Converging, R > 1+tol Diverging, otherwise NeutralCycle.
//
// The total ratio (rather than a per-crossing geometric mean) is the
// right statistic here because Theorem 1's contraction is quadratic,
// a' = a − (2/3)a²/μ + O(a³): amplitudes decay algebraically (~1/k),
// so the per-crossing ratio tends to 1 even though the spiral
// converges. A neutral cycle keeps R ≈ 1 no matter how long the
// window; a convergent spiral drives R toward 0.
func Classify(crossings []Crossing, mu, tol float64) (Behavior, float64) {
	n := len(crossings)
	if n < 3 {
		return Inconclusive, math.NaN()
	}
	a0 := crossings[0].Lambda - mu
	aN := crossings[n-1].Lambda - mu
	if a0 <= 0 || aN < 0 {
		return Inconclusive, math.NaN()
	}
	r := aN / a0
	switch {
	case r < 1-tol:
		return Converging, r
	case r > 1+tol:
		return Diverging, r
	default:
		return NeutralCycle, r
	}
}

// Settling finds the first sample time at which a trajectory with
// state [q, λ] enters and afterwards remains within distance Eps of
// the equilibrium of Law at rate Mu (Theorem 1's limit point), as its
// samples stream in through Add.
type Settling struct {
	Law     control.Law
	Mu, Eps float64

	since float64 // when the current stay within Eps began
	in    bool    // the last sample was within Eps
}

// Add takes the next sample (t, y) of the trajectory.
func (s *Settling) Add(t float64, y []float64) {
	if DistanceToEquilibrium(s.Law, s.Mu, Point{Q: y[0], Lambda: y[1]}) <= s.Eps {
		if !s.in {
			s.since, s.in = t, true
		}
	} else {
		s.in = false
	}
}

// Time returns the settling time of the samples added so far, or NaN
// when the last of them lies outside Eps.
func (s *Settling) Time() float64 {
	if !s.in {
		return math.NaN()
	}
	return s.since
}

// Overshoot tracks the maximum queue excursion Max above the target
// QHat along a trajectory with state [q, λ] (0 if the queue never
// exceeds it), as its samples stream in through Add.
type Overshoot struct {
	QHat, Max float64
}

// Add takes the next sample (t, y) of the trajectory.
func (o *Overshoot) Add(_ float64, y []float64) {
	if over := y[0] - o.QHat; over > o.Max {
		o.Max = over
	}
}
