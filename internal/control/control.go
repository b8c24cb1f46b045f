// Package control implements the dynamic rate-adjustment algorithms
// analysed by the paper: the family of feedback laws g(q, λ) that
// drive dλ/dt from the observed queue length.
//
// The paper's Equation 2 is the rate analogue of the window law of
// Jacobson and Ramakrishnan-Jain (Equation 1):
//
//	dλ/dt = +C0          if Q(t) <= q̂   (linear increase)
//	dλ/dt = −C1·λ(t)     if Q(t) >  q̂   (exponential decrease)
//
// Generalizing, Equation 4 denotes dλ/dt = g(Q, λ). This package
// provides the paper's law (AIMD), the linear-decrease variant that
// Section 7 contrasts it with (AIAD), a multiplicative-increase
// variant (MIMD) and the window-based original (Equation 1) for the
// packet-level simulator. Controllers are small immutable values,
// cheap to copy and safe for concurrent use.
package control

import (
	"fmt"
	"math"
)

// Law is a rate-control law: Drift returns g(q, λ), the instantaneous
// rate of change of the sending rate λ given the (possibly delayed)
// observed queue length q. Implementations must be pure functions of
// their arguments.
type Law interface {
	// Drift returns dλ/dt given observed queue q and current rate λ.
	Drift(q, lambda float64) float64
	// Name returns a short identifier used in reports.
	Name() string
	// Target returns the queue threshold q̂ separating the increase
	// and decrease branches.
	Target() float64
}

// validateParams checks the parameter rule shared by the concrete
// laws in this package: C0 and C1 in (0, ∞) and q̂ finite and >= 0.
func validateParams(name string, c0, c1, qHat float64) error {
	switch {
	case !(c0 > 0) || math.IsInf(c0, 1):
		return fmt.Errorf("control: %s requires C0 > 0, got %v", name, c0)
	case !(c1 > 0) || math.IsInf(c1, 1):
		return fmt.Errorf("control: %s requires C1 > 0, got %v", name, c1)
	case !(qHat >= 0) || math.IsInf(qHat, 1):
		return fmt.Errorf("control: %s requires q̂ >= 0, got %v", name, qHat)
	}
	return nil
}

// AIMD is the paper's linear-increase / exponential-decrease law
// (Equation 2): g = +C0 for q <= q̂ and g = −C1·λ for q > q̂. In window
// terms this is the Jacobson / Ramakrishnan-Jain algorithm; the
// multiplicative window decrease appears here as an exponential decay
// of the rate. Theorem 1 shows this law converges to (q̂, μ) without
// feedback delay.
type AIMD struct {
	C0   float64 // additive increase rate (packets/s²)
	C1   float64 // multiplicative decrease constant (1/s)
	QHat float64 // target queue length q̂
}

// NewAIMD validates and returns an AIMD law.
func NewAIMD(c0, c1, qHat float64) (AIMD, error) {
	if err := validateParams("AIMD", c0, c1, qHat); err != nil {
		return AIMD{}, err
	}
	return AIMD{C0: c0, C1: c1, QHat: qHat}, nil
}

// Drift implements Law.
func (l AIMD) Drift(q, lambda float64) float64 {
	if q <= l.QHat {
		return l.C0
	}
	return -l.C1 * lambda
}

// Name implements Law.
func (l AIMD) Name() string { return "AIMD" }

// Target implements Law.
func (l AIMD) Target() float64 { return l.QHat }

// AIAD is the linear-increase / linear-decrease law: g = +C0 for
// q <= q̂ and g = −C1 for q > q̂ (clamped so λ cannot be driven below
// zero by the constant decrease; see Drift). Section 7 of the paper
// observes that with this law oscillations arise from the algorithm
// itself, independent of feedback delay: the phase-plane trajectories
// are neutrally stable closed orbits (piecewise-parabolic, like an
// undamped oscillator), with no contraction toward the limit point.
type AIAD struct {
	C0   float64 // additive increase rate
	C1   float64 // additive decrease rate
	QHat float64 // target queue length q̂
}

// NewAIAD validates and returns an AIAD law.
func NewAIAD(c0, c1, qHat float64) (AIAD, error) {
	if err := validateParams("AIAD", c0, c1, qHat); err != nil {
		return AIAD{}, err
	}
	return AIAD{C0: c0, C1: c1, QHat: qHat}, nil
}

// Drift implements Law. The decrease branch is suppressed once λ has
// reached zero so the rate stays non-negative.
func (l AIAD) Drift(q, lambda float64) float64 {
	if q <= l.QHat {
		return l.C0
	}
	if lambda <= 0 {
		return 0
	}
	return -l.C1
}

// Name implements Law.
func (l AIAD) Name() string { return "AIAD" }

// Target implements Law.
func (l AIAD) Target() float64 { return l.QHat }

// MIMD is the multiplicative-increase / multiplicative-decrease law:
// g = +C0·λ for q <= q̂ and g = −C1·λ for q > q̂. Included for
// completeness of the g(·) family discussed in Section 2; it is known
// (and our experiments confirm) not to converge to a fair share across
// competing sources.
type MIMD struct {
	C0   float64 // multiplicative increase constant (1/s)
	C1   float64 // multiplicative decrease constant (1/s)
	QHat float64 // target queue length q̂
}

// NewMIMD validates and returns a MIMD law.
func NewMIMD(c0, c1, qHat float64) (MIMD, error) {
	if err := validateParams("MIMD", c0, c1, qHat); err != nil {
		return MIMD{}, err
	}
	return MIMD{C0: c0, C1: c1, QHat: qHat}, nil
}

// Drift implements Law.
func (l MIMD) Drift(q, lambda float64) float64 {
	if q <= l.QHat {
		return l.C0 * lambda
	}
	return -l.C1 * lambda
}

// Name implements Law.
func (l MIMD) Name() string { return "MIMD" }

// Target implements Law.
func (l MIMD) Target() float64 { return l.QHat }

// Custom wraps an arbitrary drift function as a Law, for exploring
// feedback schemes beyond the built-in family (the paper notes the
// model "can be applied to evaluate the performance of a wide range of
// feedback control schemes").
type Custom struct {
	DriftFunc func(q, lambda float64) float64
	LawName   string
	QHat      float64
}

// Drift implements Law.
func (l Custom) Drift(q, lambda float64) float64 { return l.DriftFunc(q, lambda) }

// Name implements Law.
func (l Custom) Name() string {
	if l.LawName == "" {
		return "custom"
	}
	return l.LawName
}

// Target implements Law.
func (l Custom) Target() float64 { return l.QHat }
