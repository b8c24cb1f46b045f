package experiments

import (
	"math"

	"fpcc/internal/control"
	"fpcc/internal/dde"
	"fpcc/internal/stability"
	"fpcc/internal/sweep"
)

// E19StabilityBoundary sharpens the paper's Section 7 observation —
// "a delay in the feedback information introduces cyclic behavior" —
// into a quantitative boundary: the linearized loop's closed-form
// critical delay τ* (Hopf point) against the full nonlinear DDE. Each
// row reports the analytic growth rate Re(s) of the dominant
// characteristic root and the simulated tail amplitude of the rate.
// The τ/τ* grid runs on the parallel sweep runner, one DDE solve per
// cell.
func E19StabilityBoundary(ctx *Ctx) (*Table, error) {
	ctx.Stepping()
	rc := ctx.Rec()
	t := &Table{
		ID:      "E19",
		Caption: "delayed-feedback stability boundary: analytic dominant root vs simulated amplitude",
		Columns: []string{"τ/τ*", "τ (s)", "Re(s) analytic", "ring freq (rad/s)", "tail swing of λ"},
	}
	law, err := control.NewSmoothAIMD(2, 0.8, 20, 1.5)
	if err != nil {
		return nil, err
	}
	const mu = 10.0
	lin, err := stability.Linearize(law, mu, 0, 60)
	if err != nil {
		return nil, err
	}
	tauStar, omega, err := stability.CriticalDelay(lin.A, lin.B)
	if err != nil {
		return nil, err
	}
	t.AddFinding("linearization at (q*=%.2f, μ=%.0f): a=%.3f, b=%.3f ⇒ τ* = %.3f s, Hopf frequency %.3f rad/s",
		lin.QStar, mu, lin.A, lin.B, tauStar, omega)

	swing := func(tau float64) (float64, error) {
		sys := func(tt float64, y []float64, lag dde.Lagger, dydt []float64) {
			dydt[0] = y[1] - mu
			if y[0] <= 0 && y[1] < mu {
				dydt[0] = 0
			}
			dydt[1] = law.Drift(lag.Lag(0, tau), y[1])
		}
		pre := []float64{5, mu + 1}
		hist := func(float64) []float64 { return pre }
		lo, hi := math.Inf(1), math.Inf(-1)
		err := dde.Stream(func(tt float64, y []float64) {
			if tt < 300 {
				return
			}
			lo = math.Min(lo, y[1])
			hi = math.Max(hi, y[1])
		}, sys, hist, []float64{tau}, 0, 400, 0.001, dde.Options{Stride: 100})
		if err != nil {
			return 0, err
		}
		return hi - lo, nil
	}

	fracs := []float64{0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0}
	type cellOut struct {
		tau, reRoot, imRoot, swing float64
	}
	cells, err := sweep.Run(sweep.Config{
		Grid:    sweep.Grid{Dims: []sweep.Dim{{Name: "tau_frac", Values: fracs}}},
		Workers: ctx.Inner(),
		Obs:     rc,
	}, func(c sweep.Cell) (cellOut, error) {
		tau := c.Values[0] * tauStar
		root, err := stability.DominantRoot(lin.A, lin.B, tau)
		if err != nil {
			return cellOut{}, err
		}
		sw, err := swing(tau)
		if err != nil {
			return cellOut{}, err
		}
		return cellOut{tau: tau, reRoot: real(root), imRoot: imag(root), swing: sw}, nil
	})
	if err != nil {
		return nil, err
	}
	var firstUnstableSwing, lastStableSwing float64
	for i, c := range cells {
		frac := fracs[i]
		t.AddRow(frac, c.tau, c.reRoot, c.imRoot, c.swing)
		if frac == 0.75 {
			lastStableSwing = c.swing
		}
		if frac == 1.5 {
			firstUnstableSwing = c.swing
		}
	}
	if firstUnstableSwing > 10*math.Max(lastStableSwing, 1e-9) {
		t.AddFinding("the nonlinear loop rings persistently above τ* and converges below it: the closed-form Hopf boundary predicts the onset")
	} else {
		t.AddFinding("swings below/above τ*: %.3g / %.3g", lastStableSwing, firstUnstableSwing)
	}
	t.AddFinding("for b = 0 (linear-decrease laws) the same formulas give τ* = 0: the algorithm oscillates without any delay, matching E8")
	return t, nil
}
