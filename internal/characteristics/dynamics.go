// Package characteristics implements the phase-plane analysis of
// Section 5 of the paper: the characteristics of the reduced
// (hyperbolic, σ² = 0) Fokker-Planck equation are the solution curves
// of
//
//	dq/dt = v = λ − μ,    dλ/dt = g(q, λ)         (Eq. 15/16)
//
// in the (q, v) plane. The package provides
//
//   - the drift field with the paper's q = 0 reflection convention
//     (η(t) = 0 when Q = 0 and λ < μ),
//   - the quadrant-by-quadrant drift-direction table of Figure 2,
//   - piecewise-exact trajectories for the AIMD law (parabolic arcs
//     below the switching line q = q̂, exponential arcs above it, with
//     analytically located switching times — no time-stepping error),
//   - a generic event-located RK4 tracer for arbitrary laws,
//   - Poincaré sections at q = q̂ and the classification of the spiral
//     (convergent per Theorem 1, neutral limit cycle, or divergent).
package characteristics

import (
	"fmt"
	"math"

	"fpcc/internal/control"
)

// Point is a state in the (Q, λ) phase plane. The queue growth rate is
// V = λ − μ; the paper draws the plane in (q, v) coordinates, which
// differ from (q, λ) by a vertical shift of μ.
type Point struct {
	Q      float64 // queue length
	Lambda float64 // arrival (sending) rate
}

// Drift returns the instantaneous drift (dq/dt, dλ/dt) at p under law
// and service rate mu, honoring the boundary convention that an empty
// queue cannot drain further: dq/dt = 0 when Q = 0 and λ < μ.
func Drift(law control.Law, mu float64, p Point) (dq, dlam float64) {
	dq = p.Lambda - mu
	if p.Q <= 0 && dq < 0 {
		dq = 0
	}
	dlam = law.Drift(p.Q, p.Lambda)
	return dq, dlam
}

// Quadrant identifies one of the four regions of Figure 2, formed by
// the lines q = q̂ and v = 0.
type Quadrant int

// Quadrants are numbered as in Figure 2 of the paper.
const (
	// QuadrantI is v > 0, q < q̂: below target, rate above service.
	QuadrantI Quadrant = iota + 1
	// QuadrantII is v > 0, q > q̂: above target, rate above service.
	QuadrantII
	// QuadrantIII is v < 0, q > q̂: above target, rate below service.
	QuadrantIII
	// QuadrantIV is v < 0, q < q̂: below target, rate below service.
	QuadrantIV
)

// String implements fmt.Stringer.
func (q Quadrant) String() string {
	switch q {
	case QuadrantI:
		return "I"
	case QuadrantII:
		return "II"
	case QuadrantIII:
		return "III"
	case QuadrantIV:
		return "IV"
	default:
		return fmt.Sprintf("Quadrant(%d)", int(q))
	}
}

// QuadrantDrift records the sign pattern of the drift field in one
// quadrant; Figure 2 of the paper is exactly this table.
type QuadrantDrift struct {
	Quadrant Quadrant
	QSign    int // sign of dq/dt in the open quadrant
	VSign    int // sign of dv/dt = dλ/dt in the open quadrant
}

func sign(x float64) int {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	default:
		return 0
	}
}

// QuadrantTable evaluates the drift-direction pattern of Figure 2 for
// an arbitrary law: each quadrant is probed at a representative
// interior point and the signs of the two drift components recorded.
// For the paper's AIMD law the result is the cyclone pattern
// (+,+), (+,−), (−,−), (−,+) that forces every trajectory to rotate
// clockwise around the operating point (q̂, μ).
func QuadrantTable(law control.Law, mu float64) [4]QuadrantDrift {
	qHat := law.Target()
	// Representative interior points: offset well away from the axes.
	dq := qHat/2 + 1
	dv := mu/2 + 1
	probes := [4]Point{
		{Q: math.Max(qHat-dq, qHat/2), Lambda: mu + dv},               // I
		{Q: qHat + dq, Lambda: mu + dv},                               // II
		{Q: qHat + dq, Lambda: math.Max(mu-dv, mu/2)},                 // III
		{Q: math.Max(qHat-dq, qHat/2), Lambda: math.Max(mu-dv, mu/2)}, // IV
	}
	var out [4]QuadrantDrift
	for i, p := range probes {
		qd, ld := Drift(law, mu, p)
		out[i] = QuadrantDrift{
			Quadrant: Quadrant(i + 1),
			QSign:    sign(qd),
			VSign:    sign(ld),
		}
	}
	return out
}

// EquilibriumPoint returns the desired operating point of the adaptive
// algorithm: Q = q̂, λ = μ (Theorem 1's limit point).
func EquilibriumPoint(law control.Law, mu float64) Point {
	return Point{Q: law.Target(), Lambda: mu}
}

// DistanceToEquilibrium returns a scale-normalized distance from p to
// the limit point: |Δq|/max(q̂,1) + |Δλ|/max(μ,1). Used by convergence
// measurements.
func DistanceToEquilibrium(law control.Law, mu float64, p Point) float64 {
	eq := EquilibriumPoint(law, mu)
	qs := math.Max(eq.Q, 1)
	ls := math.Max(mu, 1)
	return math.Abs(p.Q-eq.Q)/qs + math.Abs(p.Lambda-eq.Lambda)/ls
}
