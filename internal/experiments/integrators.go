package experiments

import (
	"fmt"
	"math"

	"fpcc/internal/control"
	"fpcc/internal/ode"
)

// E22IntegratorAblation justifies the repository's numerical choices
// for stiff control laws: when the exponential-decrease branch is
// fast, the smoothed fluid system is stiff — the rate equation's
// eigenvalue is −C1·(1−s(q)) ≈ −276/s here — and explicit RK4 must
// shrink its step to ≈ 2.8/276 ≈ 10 ms just to stay bounded, while
// the A/L-stable implicit steppers hold at any step the accuracy
// requires. The test problem is the smoothed AIMD loop with C1 = 300
// (a controller that backs off within milliseconds, as a window halving
// per RTT at short RTTs effectively does).
func E22IntegratorAblation(ctx *Ctx) (*Table, error) {
	ctx.Stepping()
	t := &Table{
		ID:      "E22",
		Caption: "stiff fluid loop (SmoothAIMD C1=300): integrator error at t=1.5 vs step size",
		Columns: []string{"stepper", "h", "|q err|", "|λ err|", "stable"},
	}
	law, err := control.NewSmoothAIMD(2, 300, 20, 2)
	if err != nil {
		return nil, err
	}
	const (
		mu   = 10.0
		tEnd = 1.5
	)
	sys := func(tt float64, y, dydt []float64) {
		dydt[0] = y[1] - mu
		if y[0] <= 0 && y[1] < mu {
			dydt[0] = 0
		}
		dydt[1] = law.Drift(y[0], y[1])
	}
	y0 := []float64{25, 12}

	// Reference: RK4 at a step far below the stiffness limit.
	ref := append([]float64(nil), y0...)
	rk := ode.NewRK4(2)
	const hRef = 1e-6
	for i := 0; i < int(tEnd/hRef); i++ {
		rk.Step(sys, float64(i)*hRef, hRef, ref)
	}

	type stepper interface {
		ode.Stepper
	}
	runOne := func(name string, s stepper, h float64) error {
		y := append([]float64(nil), y0...)
		n := int(math.Round(tEnd / h))
		for i := 0; i < n; i++ {
			s.Step(sys, float64(i)*h, h, y)
			if math.IsNaN(y[0]) || math.Abs(y[0]) > 1e6 || math.Abs(y[1]) > 1e6 {
				t.AddRow(name, h, "-", "-", "NO (diverged)")
				return nil
			}
		}
		type errer interface{ Err() error }
		if e, ok := s.(errer); ok && e.Err() != nil {
			return fmt.Errorf("%s at h=%v: %w", name, h, e.Err())
		}
		t.AddRow(name, h, math.Abs(y[0]-ref[0]), math.Abs(y[1]-ref[1]), "yes")
		return nil
	}

	for _, h := range []float64{0.05, 0.02, 0.002} {
		if err := runOne("RK4 (explicit)", ode.NewRK4(2), h); err != nil {
			return nil, err
		}
		trap, err := ode.NewImplicitTrapezoid(2)
		if err != nil {
			return nil, err
		}
		if err := runOne("implicit trapezoid", trap, h); err != nil {
			return nil, err
		}
		bdf, err := ode.NewBDF2(2)
		if err != nil {
			return nil, err
		}
		if err := runOne("BDF2", bdf, h); err != nil {
			return nil, err
		}
	}
	t.AddFinding("above h ≈ 10 ms the explicit method leaves its stability region (|z| = C1·(1−s)·h > 2.8) and diverges, while both implicit steppers stay at ≤ 10⁻² error — the reason the repository carries implicit machinery for stiff laws")
	return t, nil
}
