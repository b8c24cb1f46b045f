package characteristics

import (
	"fmt"

	"fpcc/internal/control"
)

// ReturnMap evaluates one revolution of the Poincaré map of the AIMD
// system at the section {q = q̂, λ > μ}: starting on the section with
// amplitude a (that is, λ = μ + a), the trajectory makes one loop —
// exponential decrease arc above the line, parabolic arc below it
// (possibly sticking at the empty-queue boundary) — and returns to the
// section with amplitude a' = ReturnMap(a).
//
// Theorem 1 is the statement that a' < a for every a > 0. The
// small-amplitude expansion is quadratic, not geometric:
//
//	a' = a − (2/3)·a²/μ + O(a³)
//
// so the spiral converges algebraically in revolutions (amplitudes
// decay like 1/k), which is why the paper's limit point is approached
// asymptotically rather than in finite time. The package tests
// exercise both facts.
func ReturnMap(law control.AIMD, mu, a float64) (float64, error) {
	if !(a > 0) {
		return 0, fmt.Errorf("characteristics: amplitude must be positive, got %v", a)
	}
	if !(mu > 0) {
		return 0, fmt.Errorf("characteristics: service rate must be positive, got %v", mu)
	}
	start := Point{Q: law.QHat, Lambda: mu + a}
	// One revolution needs at most a handful of segments: decrease
	// arc, parabola, possibly boundary stick and a second parabola.
	// Time bound: generously cover slow revolutions at small C0/C1.
	maxTime := 1000 * (a/law.C0 + a/(law.C1*mu) + 1)
	path, err := TraceExact(law, mu, start, maxTime, 64)
	if err != nil {
		return 0, err
	}
	ups := path.UpCrossings
	if len(ups) == 0 {
		return 0, fmt.Errorf("characteristics: no return crossing within %v segments (a=%v)", 64, a)
	}
	return ups[0].Lambda - mu, nil
}

// ContractionTable tabulates the return map over a range of
// amplitudes, returning (a, a', a'/a) triples — the quantitative
// content of Theorem 1 that experiment E2 reports.
func ContractionTable(law control.AIMD, mu float64, amplitudes []float64) ([][3]float64, error) {
	out := make([][3]float64, 0, len(amplitudes))
	for _, a := range amplitudes {
		ap, err := ReturnMap(law, mu, a)
		if err != nil {
			return nil, err
		}
		out = append(out, [3]float64{a, ap, ap / a})
	}
	return out, nil
}

// QuadraticContractionCoefficient estimates the leading coefficient c
// in a' = a − c·a²/μ + O(a³) by Richardson extrapolation of the return
// map at small amplitudes. The analytic value is 2/3 (independent of
// C0, C1 — the contraction comes purely from the curvature of the
// exponential arc against the service rate).
func QuadraticContractionCoefficient(law control.AIMD, mu float64) (float64, error) {
	// c(a) = (a − a')·μ/a² → c as a → 0. Use two amplitudes and
	// eliminate the O(a) error term.
	a1 := mu / 200
	a2 := a1 / 2
	f := func(a float64) (float64, error) {
		ap, err := ReturnMap(law, mu, a)
		if err != nil {
			return 0, err
		}
		return (a - ap) * mu / (a * a), nil
	}
	c1, err := f(a1)
	if err != nil {
		return 0, err
	}
	c2, err := f(a2)
	if err != nil {
		return 0, err
	}
	// c(a) = c + k·a ⇒ c ≈ 2·c(a/2) − c(a).
	return 2*c2 - c1, nil
}
