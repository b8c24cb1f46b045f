package fpcc_test

import (
	"fmt"
	"math"

	"fpcc"
)

// ExampleTraceExact demonstrates Theorem 1: the exact AIMD
// characteristic spirals into the limit point (q̂, μ).
func ExampleTraceExact() {
	law, _ := fpcc.NewAIMD(2.0, 0.8, 20)
	path, _ := fpcc.TraceExact(law, 10, fpcc.Point{Q: 0, Lambda: 2}, 1500, 200000)
	end := path.At(path.TotalTime())
	fmt.Printf("limit point: q=%.1f lambda=%.1f\n", end.Q, end.Lambda)
	// Output:
	// limit point: q=20.0 lambda=10.0
}

// ExampleNewFokkerPlanck integrates Eq. 14 and reads the operating-
// point moments.
func ExampleNewFokkerPlanck() {
	law, _ := fpcc.NewAIMD(2.0, 0.8, 20)
	solver, _ := fpcc.NewFokkerPlanck(fpcc.FokkerPlanckConfig{
		Law: law, Mu: 10, Sigma: 1,
		QMax: 60, NQ: 100, VMin: -12, VMax: 12, NV: 80,
		SecondOrder: true, // MUSCL advection: tighter moments
	})
	_ = solver.SetGaussian(5, -2, 1.5, 1)
	_ = solver.Advance(80, 0)
	m := solver.Moments()
	fmt.Printf("mean queue near target: %v\n", math.Abs(m.MeanQ-20) < 3)
	fmt.Printf("rate matched to service: %v\n", math.Abs(m.MeanV) < 1)
	// Output:
	// mean queue near target: true
	// rate matched to service: true
}

// ExamplePredictedShares shows the Section 6 closed-form share law.
func ExamplePredictedShares() {
	shares, _ := fpcc.PredictedShares([]fpcc.AIMD{
		{C0: 2, C1: 1, QHat: 20}, // aggressive prober
		{C0: 1, C1: 1, QHat: 20}, // half the probe rate
	})
	fmt.Printf("%.3f %.3f\n", shares[0], shares[1])
	// Output:
	// 0.667 0.333
}

// ExampleJainIndex measures allocation fairness.
func ExampleJainIndex() {
	fmt.Printf("%.2f\n", fpcc.JainIndex([]float64{5, 5, 5}))
	fmt.Printf("%.2f\n", fpcc.JainIndex([]float64{15, 0, 0}))
	// Output:
	// 1.00
	// 0.33
}

// ExampleCriticalDelay computes the Section 7 oscillation boundary in
// closed form: the delay budget of a smoothed AIMD loop.
func ExampleCriticalDelay() {
	law, _ := fpcc.NewSmoothAIMD(2, 0.8, 20, 1.5)
	lin, _ := fpcc.Linearize(law, 10, 0, 60)
	tauStar, _, _ := fpcc.CriticalDelay(lin.A, lin.B)
	// The derived law: τ* ≈ width/μ = 0.15 s.
	fmt.Printf("delay budget within 5%% of width/mu: %v\n", math.Abs(tauStar-0.15) < 0.0075)
	// Output:
	// delay budget within 5% of width/mu: true
}

// ExampleNewOnOff builds a bursty source whose long-run offered load
// equals the nominal rate.
func ExampleNewOnOff() {
	mod, _ := fpcc.NewOnOff(0.5, 1.5) // on 25% of the time at 4x the rate
	fmt.Printf("peak factor: %.0f\n", mod.Factor(0))
	fmt.Printf("mean factor: %.0f\n", mod.MeanFactor())
	// Output:
	// peak factor: 4
	// mean factor: 1
}
