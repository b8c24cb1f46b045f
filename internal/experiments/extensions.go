package experiments

import (
	"math"

	"fpcc/internal/characteristics"
	"fpcc/internal/control"
	"fpcc/internal/des"
	"fpcc/internal/fokkerplanck"
	"fpcc/internal/sde"
)

// E13WindowRateEquivalence validates the correspondence the paper
// asserts in Section 1 — it analyses "the Jacobson-Ramakrishnan-Jain
// algorithm (or rather, an equivalent rate-based algorithm)". We run
// the original window protocol (Equation 1) and its rate analogue
// (Equation 2, via control.Window.RateEquivalent) through the packet
// simulator and compare long-run throughput and queue behaviour.
func E13WindowRateEquivalence(ctx *Ctx) (*Table, error) {
	t := &Table{
		ID:      "E13",
		Caption: "Eq. 1 window protocol vs its Eq. 2 rate analogue (packet-level)",
		Columns: []string{"controller", "throughput", "utilization", "mean queue", "queue std"},
	}
	const mu = 50.0
	const rtt = 0.2
	wlaw, err := control.NewWindow(1, 0.5, 15)
	if err != nil {
		return nil, err
	}

	wsim, err := des.NewWindowSim(mu, 5, []des.WindowSourceConfig{
		{Law: wlaw, RTT: rtt, Window0: 1},
	}, 0)
	if err != nil {
		return nil, err
	}
	wres, err := wsim.Run(3000, 300)
	if err != nil {
		return nil, err
	}
	t.AddRow("window (Eq. 1)", wres.Throughput[0], wres.Throughput[0]/mu,
		wres.QueueStats.Mean(), wres.QueueStats.StdDev())

	rlaw, err := wlaw.RateEquivalent(rtt, rtt)
	if err != nil {
		return nil, err
	}
	rsim, err := des.New(des.Config{
		Mu:   mu,
		Seed: 5,
		Sources: []des.SourceConfig{{
			Law: rlaw, Delay: rtt, Interval: rtt, Lambda0: 1 / rtt, MinRate: 1 / rtt,
		}},
	})
	if err != nil {
		return nil, err
	}
	rres, err := rsim.Run(3000, 300)
	if err != nil {
		return nil, err
	}
	t.AddRow("rate (Eq. 2)", rres.Throughput[0], rres.Throughput[0]/mu,
		rres.QueueStats.Mean(), rres.QueueStats.StdDev())

	tpGap := math.Abs(wres.Throughput[0]-rres.Throughput[0]) / rres.Throughput[0]
	if tpGap < 0.10 {
		t.AddFinding("throughput within %.1f%% and comparable queue statistics: the rate model is a faithful stand-in for the window protocol", tpGap*100)
	} else {
		t.AddFinding("UNEXPECTED gap %.1f%% between window and rate controllers", tpGap*100)
	}
	return t, nil
}

// E14SchemeAblation quantifies the numerical design choice in the FP
// solver — first-order upwind advection with an optional second-order
// MUSCL/minmod limiter: both schemes against the Monte-Carlo ground
// truth at the same grid, plus their cost per step.
func E14SchemeAblation(ctx *Ctx) (*Table, error) {
	t := &Table{
		ID:      "E14",
		Caption: "FP advection scheme ablation at t=15 (150x120 grid): first-order upwind vs MUSCL",
		Columns: []string{"scheme", "E[Q]", "Var[Q]", "|E[Q]-MC|", "|Var[Q]-MC|"},
	}
	law := refLaw()
	inner := ctx.Inner()
	const sigma = 1.5
	const q0, l0, stdQ, stdL = 5.0, 8.0, 1.5, 1.0
	const horizon = 15.0

	ens, err := sde.New(sde.Config{
		Law: law, Mu: refMu, Sigma: sigma,
		Particles: 20000, Dt: 2e-3, Seed: 21,
		Q0: q0, Lambda0: l0, InitStdQ: stdQ, InitStdL: stdL,
		Workers: inner,
	})
	if err != nil {
		return nil, err
	}
	ens.Run(horizon)
	mc := ens.Moments()

	gaps := make([]float64, 0, 2)
	for _, secondOrder := range []bool{false, true} {
		cfg := e9Config(sigma, inner)
		cfg.SecondOrder = secondOrder
		s, err := fokkerplanck.New(cfg)
		if err != nil {
			return nil, err
		}
		if err := s.SetGaussian(q0, l0-refMu, stdQ, stdL); err != nil {
			return nil, err
		}
		if err := s.Advance(horizon, 0); err != nil {
			return nil, err
		}
		m := s.Moments()
		name := "upwind (1st order)"
		if secondOrder {
			name = "MUSCL/minmod (2nd order)"
		}
		varGap := math.Abs(m.VarQ - mc.VarQ)
		gaps = append(gaps, varGap)
		t.AddRow(name, m.MeanQ, m.VarQ, math.Abs(m.MeanQ-mc.MeanQ), varGap)
	}
	t.AddRow("Monte-Carlo reference", mc.MeanQ, mc.VarQ, 0.0, 0.0)
	if gaps[1] < gaps[0] {
		t.AddFinding("the limiter cuts the variance gap from %.2f to %.2f: numerical diffusion was the dominant first-order error", gaps[0], gaps[1])
	} else {
		t.AddFinding("UNEXPECTED: second-order gap %.2f >= first-order %.2f", gaps[1], gaps[0])
	}
	return t, nil
}

// E15ReturnMapLaw tabulates the Poincaré return map and its quadratic
// small-amplitude law a' = a − (2/3)a²/μ — the sharpened form of
// Theorem 1 this reproduction derives (see EXPERIMENTS.md E2).
func E15ReturnMapLaw(ctx *Ctx) (*Table, error) {
	t := &Table{
		ID:      "E15",
		Caption: "Poincaré return map of the AIMD spiral and its quadratic contraction law",
		Columns: []string{"amplitude a", "a' (one revolution)", "a'/a", "quadratic model a-(2/3)a²/μ"},
	}
	law := refLaw()
	rows, err := characteristics.ContractionTable(law, refMu, []float64{0.25, 0.5, 1, 2, 4, 8})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		model := r[0] - (2.0/3)*r[0]*r[0]/refMu
		t.AddRow(r[0], r[1], r[2], model)
	}
	c, err := characteristics.QuadraticContractionCoefficient(law, refMu)
	if err != nil {
		return nil, err
	}
	if math.Abs(c-2.0/3) < 0.02 {
		t.AddFinding("extrapolated contraction coefficient %.4f ≈ 2/3, independent of C0/C1: Theorem 1's contraction is quadratic, so convergence is asymptotic (amplitudes ~ 1/k)", c)
	} else {
		t.AddFinding("UNEXPECTED coefficient %.4f (want 2/3)", c)
	}
	return t, nil
}
