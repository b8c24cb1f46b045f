package experiments

import (
	"fmt"
	"math"

	"fpcc/internal/control"
	"fpcc/internal/fokkerplanck"
	"fpcc/internal/markov"
)

// E17FokkerPlanckVsMarkov compares the Fokker-Planck density against
// the exact finite-state Markov chain on (queue, discretized rate) —
// the strongest ground truth available for Eq. 14, free of both
// Monte-Carlo noise (unlike the SDE ensemble of E9) and fluid
// determinism (unlike E10). The CTMC's birth-death noise is matched in
// the PDE by σ² = λ* + μ ≈ 2μ, the diffusion-approximation variance
// of an M/M/1-like queue near its operating point.
func E17FokkerPlanckVsMarkov(ctx *Ctx) (*Table, error) {
	t := &Table{
		ID:      "E17",
		Caption: "FP (Eq. 14) vs exact CTMC on (Q, λ): transient queue moments and marginal L1 gap",
		Columns: []string{"t", "E[Q] ctmc", "E[Q] fp", "Std[Q] ctmc", "Std[Q] fp", "L1(marginals)"},
	}
	law, err := control.NewAIMD(2, 0.8, 8)
	if err != nil {
		return nil, err
	}
	const (
		mu      = 10.0
		qMax    = 40
		rateMax = 20.0
		nRate   = 41
		q0      = 0
		lam0    = 4.0
	)
	cq, err := markov.NewControlledQueue(law, mu, qMax, 0, rateMax, nRate)
	if err != nil {
		return nil, err
	}
	p0, err := cq.InitialPoint(q0, lam0)
	if err != nil {
		return nil, err
	}

	sigma := math.Sqrt(lam0 + mu) // birth-death noise at the start; ≈ √(2μ) near equilibrium
	fp, err := fokkerplanck.New(fokkerplanck.Config{
		Law: law, Mu: mu, Sigma: sigma,
		QMax: qMax, NQ: 80, VMin: -12, VMax: 12, NV: 96,
	})
	if err != nil {
		return nil, err
	}
	if err := fp.SetGaussian(q0+0.5, lam0-mu, 0.8, 0.8); err != nil {
		return nil, err
	}
	ctx.Stepping()

	times := []float64{2, 5, 10, 20}
	series, err := cq.Chain().TransientSeries(p0, times, 1e-9)
	if err != nil {
		return nil, err
	}
	var maxMeanGap, lastL1 float64
	for k, tt := range times {
		if err := fp.Advance(tt, 0); err != nil {
			return nil, err
		}
		mcMean, mcVar, err := cq.QueueMoments(series[k])
		if err != nil {
			return nil, err
		}
		fpm := fp.Moments()
		ctmcPMF, err := cq.MarginalQ(series[k])
		if err != nil {
			return nil, err
		}
		fpPMF, err := fpMarginalToPMF(fp, qMax)
		if err != nil {
			return nil, err
		}
		var l1 float64
		for i := range ctmcPMF {
			l1 += math.Abs(ctmcPMF[i] - fpPMF[i])
		}
		lastL1 = l1
		if gap := math.Abs(mcMean-fpm.MeanQ) / math.Max(1, mcMean); gap > maxMeanGap {
			maxMeanGap = gap
		}
		t.AddRow(tt, mcMean, fpm.MeanQ, math.Sqrt(mcVar), math.Sqrt(fpm.VarQ), l1)
	}
	if maxMeanGap < 0.25 {
		t.AddFinding("FP mean queue tracks the exact chain within %.0f%% at every checkpoint", maxMeanGap*100)
	} else {
		t.AddFinding("UNEXPECTED: FP mean deviates up to %.0f%% from the exact chain", maxMeanGap*100)
	}
	t.AddFinding("FP keeps a genuine spread (Std[Q] > 0), as the paper claims against fluid models; final marginal L1 gap %.3f", lastL1)
	return t, nil
}

// fpMarginalToPMF integrates the FP q-marginal density into unit-width
// bins centered on the integers 0..qMax, for comparison with a CTMC
// pmf on packet counts.
func fpMarginalToPMF(fp *fokkerplanck.Solver, qMax int) ([]float64, error) {
	dens := fp.MarginalQ()
	ax := fp.Grid().X
	if len(dens) != ax.N {
		return nil, fmt.Errorf("experiments: marginal has %d cells, grid %d", len(dens), ax.N)
	}
	pmf := make([]float64, qMax+1)
	for i := 0; i < ax.N; i++ {
		c := ax.Center(i)
		bin := int(math.Floor(c + 0.5))
		if bin < 0 {
			bin = 0
		}
		if bin > qMax {
			bin = qMax
		}
		pmf[bin] += dens[i] * ax.Dx
	}
	// Normalize the tiny outflow/clipping loss so the comparison is
	// between proper distributions.
	var sum float64
	for _, p := range pmf {
		sum += p
	}
	if sum > 0 {
		for i := range pmf {
			pmf[i] /= sum
		}
	}
	return pmf, nil
}
