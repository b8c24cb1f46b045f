package experiments

import (
	"math"
	"strconv"

	"fpcc/internal/control"
	"fpcc/internal/meanfield"
	"fpcc/internal/sweep"
)

// The meanfield experiments exercise the paper's large-N limit
// directly: E28 validates the kinetic (population-density) engine
// against finite-N particle ensembles of growing size, and E29 runs
// the heterogeneous-population scenario — mixed RTT classes at
// N = 10⁶ — that Jain/Ramakrishnan/Chiu evaluate congestion avoidance
// on and that per-source engines cannot reach.

// mfScaledConfig is the canonical scaled scenario shared by E28's
// cells: n sources with unit service share, total queue target 2n, so
// observables per source are N-invariant and the mean-field limit is
// approached along a fixed trajectory.
func mfScaledConfig(n int) meanfield.Config {
	return meanfield.Config{
		Classes: []meanfield.Class{{
			Law:     control.AIMD{C0: 0.5, C1: 0.5, QHat: 2 * float64(n)},
			N:       n,
			Lambda0: 1, InitStd: 0.3, SigmaL: 0.3,
		}},
		Mu: float64(n), LMax: 4, Bins: 160, Dt: 0.01, Q0: 2 * float64(n),
	}
}

const (
	mfWarm        = 40.0 // transient discarded before measuring
	mfHorizon     = 80.0
	mfSampleEvery = 50 // steps between marginal samples
)

// E28MeanFieldConvergence runs the convergence harness: the kinetic
// density solution (cost independent of N) against SoA particle
// ensembles of growing N, compared on the window-averaged queue and
// the time-averaged rate distribution (marginal L1). The particle
// cells run on the parallel sweep runner with deterministic per-cell
// seeds.
func E28MeanFieldConvergence(ctx *Ctx) (*Table, error) {
	rc := ctx.Rec()
	t := &Table{
		ID:      "E28",
		Caption: "mean-field convergence: particle ensembles vs kinetic density as N grows (per-source units)",
		Columns: []string{"N", "mean Q/N (particles)", "mean Q/N (density)", "queue gap %", "marginal L1"},
	}

	// Kinetic reference: one density solve serves every N (the
	// scenario is scaled so per-source observables are N-invariant).
	cfg := mfScaledConfig(10000)
	cfg.SecondOrder = true
	cfg.Workers = ctx.Inner()
	cfg.Obs = rc.Child("ref")
	d, err := meanfield.NewDensity(cfg)
	if err != nil {
		return nil, err
	}
	ctx.Stepping()
	if err := d.Run(mfWarm); err != nil {
		return nil, err
	}
	refMarg := make([]float64, cfg.Bins)
	var refQ float64
	var cnt, samples int
	for step := 0; d.Time() < mfHorizon; step++ {
		if err := d.Step(); err != nil {
			return nil, err
		}
		refQ += d.Queue()
		cnt++
		if step%mfSampleEvery == 0 {
			m := d.Marginal(0)
			for i := range refMarg {
				refMarg[i] += m[i]
			}
			samples++
		}
	}
	refQ = refQ / float64(cnt) / 10000
	for i := range refMarg {
		refMarg[i] /= float64(samples)
	}

	type cellOut struct {
		meanQ, gap, l1 float64
	}
	grid := sweep.Grid{Dims: []sweep.Dim{
		{Name: "N", Values: []float64{100, 1000, 10000}},
	}}
	dl := cfg.LMax / float64(cfg.Bins)
	cells, err := sweep.Run(sweep.Config{Grid: grid, BaseSeed: 28, Workers: ctx.Inner(), Obs: rc}, func(c sweep.Cell) (cellOut, error) {
		n := int(c.Values[0])
		pcfg := mfScaledConfig(n)
		pcfg.Obs = rc.Child("cell" + strconv.Itoa(c.Index))
		p, err := meanfield.NewParticles(pcfg, c.Seed, c.Workers)
		if err != nil {
			return cellOut{}, err
		}
		if err := p.Run(mfWarm); err != nil {
			return cellOut{}, err
		}
		avgEmp := make([]float64, cfg.Bins)
		var qSum float64
		var qn, hs int
		for step := 0; p.Time() < mfHorizon; step++ {
			if err := p.Step(); err != nil {
				return cellOut{}, err
			}
			qSum += p.Queue()
			qn++
			if step%mfSampleEvery == 0 {
				h, err := p.Histogram(0, cfg.Bins)
				if err != nil {
					return cellOut{}, err
				}
				for i, cnt := range h.Counts {
					avgEmp[i] += float64(cnt) / float64(n) / dl
				}
				hs++
			}
		}
		var l1 float64
		for i := range avgEmp {
			l1 += math.Abs(avgEmp[i]/float64(hs)-refMarg[i]) * dl
		}
		meanQ := qSum / float64(qn) / float64(n)
		return cellOut{meanQ: meanQ, gap: 100 * math.Abs(meanQ-refQ) / refQ, l1: l1}, nil
	})
	if err != nil {
		return nil, err
	}
	l1Monotone := true
	for i, c := range cells {
		t.AddRow(grid.Dims[0].Values[i], c.meanQ, refQ, c.gap, c.l1)
		if i > 0 && c.l1 >= cells[i-1].l1 {
			l1Monotone = false
		}
	}
	last := cells[len(cells)-1]
	if last.gap <= 2 && l1Monotone {
		t.AddFinding("particle observables converge to the kinetic solution: marginal L1 falls %.3f -> %.3f -> %.3f (~1/√N) and the N=10⁴ steady mean queue matches within %.2g%% — the density engine is the valid large-N limit at O(classes × bins) cost",
			cells[0].l1, cells[1].l1, cells[2].l1, last.gap)
	} else {
		t.AddFinding("MISMATCH: N=10⁴ queue gap %.2f%% (want <= 2%%), L1 sequence %v monotone=%v",
			last.gap, []float64{cells[0].l1, cells[1].l1, cells[2].l1}, l1Monotone)
	}
	return t, nil
}

// E29HeterogeneousRTTMix runs the scenario the DEC congestion-
// avoidance evaluations posed and per-source engines cannot scale to:
// a million-source population split between a fast-RTT and a slow-RTT
// class (the slow class probes more slowly, C0 ∝ 1/RTT, and observes
// the queue later), swept over the mix fraction and the RTT ratio as
// grid dimensions of the parallel sweep runner.
func E29HeterogeneousRTTMix(ctx *Ctx) (*Table, error) {
	ctx.Stepping()
	rc := ctx.Rec()
	t := &Table{
		ID:      "E29",
		Caption: "heterogeneous RTT mix at N=10⁶: per-source shares of slow vs fast classes (mean-field density)",
		Columns: []string{"slow frac", "RTT ratio", "fast share", "slow share", "share ratio", "mean Q/N", "Jain"},
	}
	const (
		total = 1_000_000
		qhat0 = 2.0
	)
	type cellOut struct {
		fast, slow, q, jain float64
	}
	grid := sweep.Grid{Dims: []sweep.Dim{
		{Name: "slowfrac", Values: []float64{0.2, 0.5, 0.8}},
		{Name: "rttratio", Values: []float64{2, 8}},
	}}
	cells, err := sweep.Run(sweep.Config{Grid: grid, BaseSeed: 29, Workers: ctx.Inner(), Obs: rc}, func(c sweep.Cell) (cellOut, error) {
		frac, ratio := c.Values[0], c.Values[1]
		nSlow := int(frac * total)
		nFast := total - nSlow
		qhat := qhat0 * total
		cfg := meanfield.Config{
			Classes: []meanfield.Class{
				{
					Name: "fast", Law: control.AIMD{C0: 0.5, C1: 0.5, QHat: qhat},
					N: nFast, Delay: 0.2, Lambda0: 1, InitStd: 0.3, SigmaL: 0.3,
				},
				{
					Name: "slow", Law: control.AIMD{C0: 0.5 / ratio, C1: 0.5, QHat: qhat},
					N: nSlow, Delay: 0.2 * ratio, Lambda0: 1, InitStd: 0.3, SigmaL: 0.3,
				},
			},
			Mu: total, LMax: 6, Bins: 192, Dt: 0.005, Q0: qhat, SecondOrder: true,
			Workers: c.Workers, Obs: rc.Child("cell" + strconv.Itoa(c.Index)),
		}
		d, err := meanfield.NewDensity(cfg)
		if err != nil {
			return cellOut{}, err
		}
		meanQ, rates, err := meanfield.SteadyStats(d, 60, 120, nil)
		if err != nil {
			return cellOut{}, err
		}
		fast, slow := rates[0], rates[1]
		// Jain's index over the full per-source allocation (nFast
		// sources at the fast share, nSlow at the slow share).
		nf, ns := float64(nFast), float64(nSlow)
		sum := nf*fast + ns*slow
		sumSq := nf*fast*fast + ns*slow*slow
		return cellOut{
			fast: fast, slow: slow,
			q:    meanQ / total,
			jain: sum * sum / (float64(total) * sumSq),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	allBeaten := true
	ratioGrows := true
	maxRatio := math.Inf(-1)
	for i, c := range cells {
		vals := grid.Values(i)
		shareRatio := c.fast / c.slow
		t.AddRow(vals[0], vals[1], c.fast, c.slow, shareRatio, c.q, c.jain)
		if shareRatio <= 1 {
			allBeaten = false
		}
		if shareRatio > maxRatio {
			maxRatio = shareRatio
		}
		// Cells come in (slowfrac, ratio=2), (slowfrac, ratio=8)
		// pairs: the higher RTT ratio must widen the share gap.
		if i%2 == 1 && shareRatio <= cells[i-1].fast/cells[i-1].slow {
			ratioGrows = false
		}
	}
	if allBeaten && ratioGrows {
		t.AddFinding("the slow-RTT class is beaten below the fast class's per-source share in every mix (ratio up to %.2f at RTT ratio 8), and widening the RTT ratio widens the gap — the DEC heterogeneous-population unfairness, reproduced at N=10⁶ for the cost of a density solve",
			maxRatio)
	} else {
		t.AddFinding("UNEXPECTED: beaten-everywhere=%v ratio-grows-with-RTT=%v", allBeaten, ratioGrows)
	}
	return t, nil
}
