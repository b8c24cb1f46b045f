package churn

import (
	"math"
	"testing"
)

// FuzzPareto holds the Pareto lifetime fit to its contract for any
// (α, x_m). NewPareto rejects a shape that is not finite and at least
// minParetoShape, or a scale outside [1e-300, 1e300], and rejects
// nothing else. An accepted pair meets paretoContract: phases that
// pass ValidatePhases at Mean(), the exact mean and, for α ≤ 2, the
// factor-3 tail band. Nothing may panic.
func FuzzPareto(f *testing.F) {
	f.Fuzz(func(t *testing.T, alpha, xm float64) {
		p, err := NewPareto(alpha, xm)
		valid := alpha >= minParetoShape && !math.IsInf(alpha, 1) && xm >= 1e-300 && xm <= 1e300
		if !valid {
			if err == nil {
				t.Fatalf("NewPareto(%v, %v) accepted an invalid shape or scale", alpha, xm)
			}
			return
		}
		if err != nil {
			t.Fatalf("NewPareto(%v, %v): %v", alpha, xm, err)
		}
		if err := paretoContract(p, alpha, xm); err != nil {
			t.Fatalf("NewPareto(%v, %v): %v", alpha, xm, err)
		}
	})
}
