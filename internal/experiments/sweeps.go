package experiments

import (
	"math"

	"fpcc/internal/characteristics"
	"fpcc/internal/control"
	"fpcc/internal/fokkerplanck"
	"fpcc/internal/sweep"
)

// E11ParameterSweep quantifies Theorem 1 across the (C0, C1) parameter
// plane: convergence holds everywhere (the theorem's content), while
// speed and overshoot trade off — the engineering question ("what
// values should a and d take") the paper poses in Section 2. The 3×3
// grid runs on the generic parallel sweep runner; cell order (C1
// varying fastest) matches the original nested loop.
func E11ParameterSweep(ctx *Ctx) (*Table, error) {
	ctx.Stepping()
	rc := ctx.Rec()
	t := &Table{
		ID:      "E11",
		Caption: "convergence time and overshoot vs (C0, C1), no delay (Theorem 1)",
		Columns: []string{"C0", "C1", "settling time (s)", "queue overshoot", "behavior"},
	}
	type cellOut struct {
		settle, over float64
		behavior     string
		converged    bool
	}
	grid := sweep.Grid{Dims: []sweep.Dim{
		{Name: "c0", Values: []float64{0.5, 2, 8}},
		{Name: "c1", Values: []float64{0.2, 0.8, 3.2}},
	}}
	cells, err := sweep.Run(sweep.Config{Grid: grid, Workers: ctx.Inner(), Obs: rc}, func(c sweep.Cell) (cellOut, error) {
		law := control.AIMD{C0: c.Values[0], C1: c.Values[1], QHat: refQHat}
		settling := characteristics.Settling{Law: law, Mu: refMu, Eps: 0.05}
		over := characteristics.Overshoot{QHat: refQHat}
		sec := characteristics.Section{QHat: refQHat, Mu: refMu}
		err := characteristics.Trace(law, refMu, characteristics.Point{Q: 0, Lambda: 2}, 2000, 2e-3,
			func(t float64, y []float64) {
				settling.Add(t, y)
				over.Add(t, y)
				sec.Add(t, y)
			})
		if err != nil {
			return cellOut{}, err
		}
		out := cellOut{
			settle:    settling.Time(),
			over:      over.Max,
			converged: true,
		}
		beh, _ := characteristics.Classify(sec.Crossings, refMu, 0.05)
		out.behavior = beh.String()
		if beh != characteristics.Converging && beh != characteristics.Inconclusive {
			out.converged = false
		}
		if beh == characteristics.Inconclusive {
			// Overdamped runs settle with <3 crossings; verify by
			// the settling time instead.
			if math.IsNaN(out.settle) {
				out.converged = false
				out.behavior = "no-settle"
			} else {
				out.behavior = "overdamped"
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	allConverge := true
	for i, c := range cells {
		vals := grid.Values(i)
		if !c.converged {
			allConverge = false
		}
		t.AddRow(vals[0], vals[1], c.settle, c.over, c.behavior)
	}
	if allConverge {
		t.AddFinding("every (C0, C1) pair converges — Theorem 1 is parameter-free; speed/overshoot trade off across the sweep")
	} else {
		t.AddFinding("CONVERGENCE FAILURE in sweep")
	}
	return t, nil
}

// E12DiffusionSpread quantifies the Section 5 closing remark: with
// σ² > 0 the operating point spreads into a stationary distribution
// whose width grows with σ. We sweep σ on the parallel runner and
// report the stationary queue spread around q̂.
func E12DiffusionSpread(ctx *Ctx) (*Table, error) {
	ctx.Stepping()
	rc := ctx.Rec()
	t := &Table{
		ID:      "E12",
		Caption: "stationary queue spread around q̂ vs noise amplitude σ (Section 5, σ²>0)",
		Columns: []string{"σ", "E[Q]", "Std[Q]", "P(Q > q̂+5)"},
	}
	sigmas := []float64{0.5, 1, 2, 4}
	type cellOut struct {
		mean, std, tail float64
	}
	cells, err := sweep.Run(sweep.Config{
		Grid:    sweep.Grid{Dims: []sweep.Dim{{Name: "sigma", Values: sigmas}}},
		Workers: ctx.Inner(),
		Obs:     rc,
	}, func(c sweep.Cell) (cellOut, error) {
		// Starting at the operating point itself, the stationary
		// spread is established quickly; a coarser grid suffices for
		// the monotonicity question.
		// Cells already run in parallel; each FP solve stays
		// single-threaded so the sweep pool owns the whole grant.
		cfg := e9Config(c.Values[0], 1)
		cfg.NQ, cfg.NV = 100, 80
		s, err := fokkerplanck.New(cfg)
		if err != nil {
			return cellOut{}, err
		}
		if err := s.SetGaussian(refQHat, 0, 2, 1); err != nil {
			return cellOut{}, err
		}
		if err := s.Advance(60, 0); err != nil {
			return cellOut{}, err
		}
		m := s.Moments()
		return cellOut{mean: m.MeanQ, std: math.Sqrt(m.VarQ), tail: s.TailProb(refQHat + 5)}, nil
	})
	if err != nil {
		return nil, err
	}
	var stds []float64
	for i, c := range cells {
		stds = append(stds, c.std)
		t.AddRow(sigmas[i], c.mean, c.std, c.tail)
	}
	monotone := true
	for i := 1; i < len(stds); i++ {
		if stds[i] <= stds[i-1] {
			monotone = false
		}
	}
	if monotone {
		t.AddFinding("stationary spread grows monotonically with σ: variability widens the operating point into a distribution")
	} else {
		t.AddFinding("UNEXPECTED: spreads %v", stds)
	}
	return t, nil
}
