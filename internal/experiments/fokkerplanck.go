package experiments

import (
	"math"

	"fpcc/internal/fluid"
	"fpcc/internal/fokkerplanck"
	"fpcc/internal/sde"
	"fpcc/internal/stats"
)

// e9Config returns the shared FP/SDE configuration for the validation
// experiments. The solver's sweep pool is bounded by the suite's
// inner-worker knob; results are worker-count independent.
func e9Config(sigma float64, inner int) fokkerplanck.Config {
	return fokkerplanck.Config{
		Law:   refLaw(),
		Mu:    refMu,
		Sigma: sigma,
		QMax:  60, NQ: 150,
		VMin: -12, VMax: 12, NV: 120,
		Workers: inner,
	}
}

// E9FokkerPlanckVsMonteCarlo validates the Section 4 equation: the
// PDE solution's moments and q-marginal must match a large SDE
// particle ensemble of the same system through the transient.
func E9FokkerPlanckVsMonteCarlo(ctx *Ctx) (*Table, error) {
	rc := ctx.Rec()
	t := &Table{
		ID:      "E9",
		Caption: "Eq. 14 PDE vs Monte-Carlo ensemble: transient moments and density distance",
		Columns: []string{"t (s)", "E[Q] FP", "E[Q] MC", "Var[Q] FP", "Var[Q] MC", "marginal L1 dist"},
	}
	const sigma = 1.5
	const q0, l0, stdQ, stdL = 5.0, 8.0, 1.5, 1.0
	inner := ctx.Inner()
	setup := rc.Span("setup")
	cfg := e9Config(sigma, inner)
	cfg.Obs = rc
	s, err := fokkerplanck.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.SetGaussian(q0, l0-refMu, stdQ, stdL); err != nil {
		return nil, err
	}
	ens, err := sde.New(sde.Config{
		Law: cfg.Law, Mu: refMu, Sigma: sigma,
		Particles: 40000, Dt: 2e-3, Seed: 99,
		Q0: q0, Lambda0: l0, InitStdQ: stdQ, InitStdL: stdL,
		Workers: inner,
		Obs:     rc,
	})
	if err != nil {
		return nil, err
	}
	setup.End()
	stepSpan := rc.Span("step")
	checkpoints := []float64{1, 2, 5, 10, 20}
	worstL1 := 0.0
	worstMean := 0.0
	fpMarg := make([]float64, 0, cfg.NQ)
	for _, cp := range checkpoints {
		if err := s.Advance(cp, 0); err != nil {
			return nil, err
		}
		ens.Run(cp)
		fp := s.Moments()
		mc := ens.Moments()
		// Marginal density comparison on the PDE grid (buffer reused
		// across checkpoints).
		fpMarg = s.AppendMarginalQ(fpMarg[:0])
		hist, err := ens.QueueHistogram(cfg.QMax, cfg.NQ)
		if err != nil {
			return nil, err
		}
		mcMarg := hist.Density()
		l1, err := stats.L1DensityDistance(fpMarg, mcMarg, s.Grid().X.Dx)
		if err != nil {
			return nil, err
		}
		if l1 > worstL1 {
			worstL1 = l1
		}
		if d := math.Abs(fp.MeanQ - mc.MeanQ); d > worstMean {
			worstMean = d
		}
		t.AddRow(cp, fp.MeanQ, mc.MeanQ, fp.VarQ, mc.VarQ, l1)
	}
	stepSpan.End()
	if err := ens.InvariantViolation(); err != nil {
		return nil, err
	}
	render := rc.Span("render")
	defer render.End()
	if worstMean < 2.5 && worstL1 < 0.5 {
		t.AddFinding("FP tracks the particle system through the transient (worst mean gap %.2f, worst L1 %.2f): Eq. 14 is the right forward equation", worstMean, worstL1)
	} else {
		t.AddFinding("VALIDATION GAP: worst mean %.2f, worst L1 %.2f", worstMean, worstL1)
	}
	return t, nil
}

// E10VariabilityVsFluid is the abstract's differentiating claim: the
// Fokker-Planck model "addresses traffic variability that fluid
// approximation techniques do not". The fluid model collapses to a
// trajectory (a point mass), so any buffer larger than the final queue
// value overflows with probability exactly 0; the FP density keeps the
// spread and reports a positive overflow probability near the
// operating point.
func E10VariabilityVsFluid(ctx *Ctx) (*Table, error) {
	rc := ctx.Rec()
	t := &Table{
		ID:      "E10",
		Caption: "buffer overflow P(Q > B) at steady state: fluid vs Fokker-Planck vs Monte-Carlo",
		Columns: []string{"buffer B", "fluid P(Q>B)", "FP P(Q>B)", "MC P(Q>B)"},
	}
	// By t = 80 the σ=2 system has reached its stationary regime
	// (cross-checked by E12's longer runs).
	const sigma = 2.0
	const horizon = 80.0
	inner := ctx.Inner()
	setup := rc.Span("setup")
	cfg := e9Config(sigma, inner)
	cfg.Obs = rc
	s, err := fokkerplanck.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.SetGaussian(5, -2, 1.5, 1); err != nil {
		return nil, err
	}
	setup.End()
	stepSpan := rc.Span("step")
	if err := s.Advance(horizon, 0); err != nil {
		return nil, err
	}
	ens, err := sde.New(sde.Config{
		Law: cfg.Law, Mu: refMu, Sigma: sigma,
		Particles: 20000, Dt: 5e-3, Seed: 123,
		Q0: 5, Lambda0: 8, InitStdQ: 1.5, InitStdL: 1,
		Workers: inner,
		Obs:     rc,
	})
	if err != nil {
		return nil, err
	}
	ens.Run(horizon)
	stepSpan.End()
	if err := ens.InvariantViolation(); err != nil {
		return nil, err
	}
	render := rc.Span("render")
	defer render.End()

	// Fluid trajectory: deterministic point state at the horizon.
	m := fluid.Model{Mu: refMu, Q0: 5, Sources: []fluid.Source{{Law: refLaw(), Lambda0: 8}}}
	sol, err := m.Solve(horizon, 1e-3, 100)
	if err != nil {
		return nil, err
	}
	_, yEnd := sol.Last()
	qFluid := yEnd[0]

	buffers := []float64{22, 25, 30, 35, 40}
	fpPositive := true
	fluidZero := true
	for _, b := range buffers {
		var pFluid float64
		if qFluid > b {
			pFluid = 1
		}
		pFP := s.TailProb(b)
		pMC := ens.TailFraction(b)
		if pFP <= 0 && b <= 30 {
			fpPositive = false
		}
		if pFluid != 0 {
			fluidZero = false
		}
		t.AddRow(b, pFluid, pFP, pMC)
	}
	if fluidZero && fpPositive {
		t.AddFinding("fluid reports 0 for every buffer above its point value (q=%.2f) while FP and MC agree on positive overflow mass: the FP model captures variability the fluid cannot", qFluid)
	} else {
		t.AddFinding("UNEXPECTED: fluid zero=%v, FP positive=%v", fluidZero, fpPositive)
	}
	return t, nil
}
