// Package stability analyzes the delayed feedback loop of Section 7
// analytically: it linearizes the fluid system
//
//	dQ/dt = λ(t) − μ
//	dλ/dt = g(Q(t−τ), λ(t))
//
// around its equilibrium (q*, μ) and studies the characteristic
// equation of the resulting linear delay system
//
//	dx/dt = y(t)
//	dy/dt = a·x(t−τ) + b·y(t),   a = ∂g/∂q < 0,  b = ∂g/∂λ ≤ 0
//
// namely D(s) = s² − b·s − a·e^{−sτ} = 0. The paper observes that
// delayed feedback introduces oscillations; this package makes the
// observation sharp: the loop is asymptotically stable exactly for
// τ < τ*, where the critical delay τ* has the closed form computed by
// CriticalDelay, and the oscillation born at the Hopf point has
// angular frequency ω* = HopfFrequency. The root finder DominantRoot
// locates the rightmost characteristic root for any τ, giving the
// exact exponential growth/decay rate and ringing frequency of small
// disturbances — quantities the experiments check against both the
// DDE integrator and the packet simulator.
package stability

import (
	"fmt"
	"math"
	"math/cmplx"

	"fpcc/internal/control"
)

// Linearization holds the delayed loop linearized at its equilibrium.
type Linearization struct {
	QStar   float64 // equilibrium queue length
	LamStar float64 // equilibrium sending rate (= μ)
	A       float64 // a = ∂g/∂q at the equilibrium (< 0 for useful laws)
	B       float64 // b = ∂g/∂λ at the equilibrium (≤ 0)
}

// Linearize computes the equilibrium and the partial derivatives of a
// law numerically (central differences), so it works for any Law, not
// just SmoothAIMD. The equilibrium queue q* is located by bisection of
// g(q, μ) on [lo, hi]; for laws with closed forms prefer their own
// methods (e.g. SmoothAIMD.Equilibrium) as the bracket-free route.
func Linearize(law control.Law, mu, lo, hi float64) (*Linearization, error) {
	switch {
	case law == nil:
		return nil, fmt.Errorf("stability: nil law")
	case !(mu > 0) || math.IsInf(mu, 1):
		return nil, fmt.Errorf("stability: service rate must be positive, got %v", mu)
	case !(hi > lo):
		return nil, fmt.Errorf("stability: bad bracket [%v, %v]", lo, hi)
	}
	g := func(q float64) float64 { return law.Drift(q, mu) }
	glo, ghi := g(lo), g(hi)
	if glo == 0 {
		return linearizeAt(law, mu, lo)
	}
	if ghi == 0 {
		return linearizeAt(law, mu, hi)
	}
	if glo*ghi > 0 {
		return nil, fmt.Errorf("stability: g(q, μ) does not change sign on [%v, %v] (g=%v..%v); widen the bracket", lo, hi, glo, ghi)
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		gm := g(mid)
		if gm == 0 || (hi-lo) < 1e-13*(1+math.Abs(mid)) {
			return linearizeAt(law, mu, mid)
		}
		if glo*gm < 0 {
			hi = mid
		} else {
			lo, glo = mid, gm
		}
	}
	return linearizeAt(law, mu, (lo+hi)/2)
}

// linearizeAt evaluates the partials at (q*, μ).
func linearizeAt(law control.Law, mu, qStar float64) (*Linearization, error) {
	// Step sizes balance truncation against cancellation; the drift
	// magnitudes here are O(1)–O(10).
	hq := 1e-6 * (1 + math.Abs(qStar))
	hl := 1e-6 * (1 + mu)
	a := (law.Drift(qStar+hq, mu) - law.Drift(qStar-hq, mu)) / (2 * hq)
	b := (law.Drift(qStar, mu+hl) - law.Drift(qStar, mu-hl)) / (2 * hl)
	if math.IsNaN(a) || math.IsNaN(b) {
		return nil, fmt.Errorf("stability: non-finite partials at q*=%v", qStar)
	}
	return &Linearization{QStar: qStar, LamStar: mu, A: a, B: b}, nil
}

// CriticalDelay returns the smallest delay τ* > 0 at which the loop
// loses stability (the Hopf point), given the linearization a < 0,
// b ≤ 0. Writing α = −a and β = −b, the crossing frequency solves
// ω⁴ + β²ω² − α² = 0, i.e.
//
//	ω*² = (−β² + √(β⁴ + 4α²)) / 2
//
// and the critical delay is τ* = atan2(βω*, ω*²)/ω*. For β = 0 (AIAD-
// like laws with no rate damping) τ* = 0: the undelayed loop is
// already only neutrally stable, matching the paper's observation
// that linear-decrease algorithms oscillate without any delay.
func CriticalDelay(a, b float64) (tau, omega float64, err error) {
	if !(a < 0) {
		return 0, 0, fmt.Errorf("stability: need a < 0 (restoring feedback), got %v", a)
	}
	if b > 0 {
		return 0, 0, fmt.Errorf("stability: b > 0 means the undelayed loop is already unstable (b=%v)", b)
	}
	alpha, beta := -a, -b
	w2 := (-beta*beta + math.Sqrt(beta*beta*beta*beta+4*alpha*alpha)) / 2
	w := math.Sqrt(w2)
	if !(w > 0) {
		return 0, 0, fmt.Errorf("stability: degenerate crossing frequency")
	}
	return math.Atan2(beta*w, w2) / w, w, nil
}

// CharEval evaluates the characteristic function
// D(s) = s² − b·s − a·e^{−sτ} and its derivative.
func CharEval(s complex128, a, b, tau float64) (d, dPrime complex128) {
	e := cmplx.Exp(-s * complex(tau, 0))
	d = s*s - complex(b, 0)*s - complex(a, 0)*e
	dPrime = 2*s - complex(b, 0) + complex(a*tau, 0)*e
	return d, dPrime
}

// newtonRoot polishes one root of D from a starting point. Returns an
// error if Newton does not converge.
func newtonRoot(s complex128, a, b, tau float64) (complex128, error) {
	for i := 0; i < 100; i++ {
		d, dp := CharEval(s, a, b, tau)
		if cmplx.Abs(dp) < 1e-300 {
			return 0, fmt.Errorf("stability: derivative vanished at %v", s)
		}
		step := d / dp
		s -= step
		if cmplx.Abs(step) < 1e-12*(1+cmplx.Abs(s)) {
			return s, nil
		}
	}
	return 0, fmt.Errorf("stability: Newton did not converge from %v", s)
}

// DominantRoot returns the characteristic root with the largest real
// part (searching a grid of starting points covering the low-frequency
// region where the rightmost root of this loop class lives, then
// polishing with Newton). The root's real part is the exponential
// growth rate of small disturbances; its imaginary part is the ringing
// frequency.
func DominantRoot(a, b, tau float64) (complex128, error) {
	if !(a < 0) {
		return 0, fmt.Errorf("stability: need a < 0, got %v", a)
	}
	if tau < 0 || math.IsNaN(tau) {
		return 0, fmt.Errorf("stability: negative delay %v", tau)
	}
	// Scales: the undelayed natural frequency is √(−a); roots of
	// interest live within a few multiples of it (delay only slows
	// the crossing frequency down).
	w0 := math.Sqrt(-a)
	best := complex(math.Inf(-1), 0)
	found := false
	var starts []complex128
	for _, re := range []float64{-2 * w0, -w0, -0.25 * w0, 0, 0.25 * w0, w0} {
		for _, im := range []float64{0, 0.25 * w0, 0.5 * w0, w0, 1.5 * w0, 2.5 * w0} {
			starts = append(starts, complex(re, im))
		}
	}
	for _, s0 := range starts {
		r, err := newtonRoot(s0, a, b, tau)
		if err != nil {
			continue
		}
		// Report the upper-half-plane representative (roots come in
		// conjugate pairs).
		if imag(r) < 0 {
			r = cmplx.Conj(r)
		}
		// Verify it actually is a root (Newton can wander).
		if d, _ := CharEval(r, a, b, tau); cmplx.Abs(d) > 1e-6*(1+cmplx.Abs(r*r)) {
			continue
		}
		if !found || real(r) > real(best)+1e-12 {
			best, found = r, true
		}
	}
	if !found {
		return 0, fmt.Errorf("stability: no characteristic root found (a=%v b=%v τ=%v)", a, b, tau)
	}
	return best, nil
}

// Classification labels a delayed loop.
type Classification int

// Classification values.
const (
	// Stable: all characteristic roots in the open left half-plane.
	Stable Classification = iota
	// Marginal: dominant root within tolerance of the imaginary axis.
	Marginal
	// Unstable: a root with positive real part (growing oscillation).
	Unstable
)

// String implements fmt.Stringer.
func (c Classification) String() string {
	switch c {
	case Stable:
		return "stable"
	case Marginal:
		return "marginal"
	case Unstable:
		return "unstable"
	default:
		return fmt.Sprintf("Classification(%d)", int(c))
	}
}

// Classify labels the loop by the sign of the dominant root's real
// part, with a tolerance band around zero for the marginal case.
func Classify(a, b, tau, tol float64) (Classification, complex128, error) {
	r, err := DominantRoot(a, b, tau)
	if err != nil {
		return Stable, 0, err
	}
	switch {
	case real(r) > tol:
		return Unstable, r, nil
	case real(r) < -tol:
		return Stable, r, nil
	default:
		return Marginal, r, nil
	}
}
