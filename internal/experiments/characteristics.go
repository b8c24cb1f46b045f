package experiments

import (
	"fmt"
	"math"

	"fpcc/internal/characteristics"
	"fpcc/internal/control"
)

// Reference parameters shared by the deterministic experiments: the
// rate-based JRJ law with a 20-packet target queue at a 10 packet/s
// bottleneck (arbitrary but fixed units; the paper's analysis is
// scale-free).
const (
	refMu   = 10.0
	refQHat = 20.0
	refC0   = 2.0
	refC1   = 0.8
)

func refLaw() control.AIMD {
	return control.AIMD{C0: refC0, C1: refC1, QHat: refQHat}
}

// E1QuadrantDrifts regenerates Figure 2: the sign pattern of the
// (dq/dt, dv/dt) drift field in the four quadrants around the
// operating point, which forces clockwise rotation.
func E1QuadrantDrifts(ctx *Ctx) (*Table, error) {
	ctx.Stepping()
	t := &Table{
		ID:      "E1",
		Caption: "drift directions by quadrant (AIMD law, Figure 2)",
		Columns: []string{"quadrant", "region", "dq/dt sign", "dv/dt sign"},
	}
	law := refLaw()
	table := characteristics.QuadrantTable(law, refMu)
	regions := []string{
		"v>0, q<q̂", "v>0, q>q̂", "v<0, q>q̂", "v<0, q<q̂",
	}
	signStr := func(s int) string {
		switch {
		case s > 0:
			return "+"
		case s < 0:
			return "-"
		default:
			return "0"
		}
	}
	want := [4][2]int{{1, 1}, {1, -1}, {-1, -1}, {-1, 1}}
	ok := true
	for i, row := range table {
		t.AddRow(row.Quadrant.String(), regions[i], signStr(row.QSign), signStr(row.VSign))
		if row.QSign != want[i][0] || row.VSign != want[i][1] {
			ok = false
		}
	}
	if ok {
		t.AddFinding("rotation pattern (+,+)(+,-)(-,-)(-,+) matches Figure 2: trajectories circle (q̂, 0) clockwise")
	} else {
		t.AddFinding("MISMATCH with Figure 2 pattern")
	}
	return t, nil
}

// E2ConvergentSpiral regenerates Figure 3 / Theorem 1: the exact AIMD
// trajectory spirals into (q̂, μ); successive Poincaré amplitudes
// contract.
func E2ConvergentSpiral(ctx *Ctx) (*Table, error) {
	ctx.Stepping()
	t := &Table{
		ID:      "E2",
		Caption: "Poincaré amplitudes of the exact AIMD spiral (Theorem 1, Figure 3)",
		Columns: []string{"crossing k", "λ at crossing", "amplitude a_k = λ-μ", "a_k/a_{k-1}"},
	}
	law := refLaw()
	const horizon, maxSegments = 3000.0, 200000
	path, err := characteristics.TraceExact(law, refMu, characteristics.Point{Q: 0, Lambda: 2}, horizon, maxSegments)
	if err != nil {
		return nil, err
	}
	ups := path.UpCrossings
	if len(ups) < 5 {
		return nil, fmt.Errorf("E2: only %d crossings", len(ups))
	}
	show := ups
	if len(show) > 10 {
		show = show[:10]
	}
	prev := math.NaN()
	monotone := true
	for k, p := range show {
		a := p.Lambda - refMu
		ratio := "-"
		if k > 0 {
			ratio = fmt.Sprintf("%.4f", a/prev)
			if a >= prev {
				monotone = false
			}
		}
		t.AddRow(k, p.Lambda, a, ratio)
		prev = a
	}
	tEnd := path.TotalTime()
	end := path.At(tEnd)
	if len(path.Segments) == maxSegments && tEnd < horizon {
		t.AddFinding("the trace stops at t=%.2f of %g s: the Zeno spiral's ever faster crossings spent its %d-segment budget",
			tEnd, horizon, maxSegments)
	}
	t.AddFinding("state at t=%.2f (q=%.3f, λ=%.3f), limit point (q̂=%.0f, μ=%.0f)",
		tEnd, end.Q, end.Lambda, refQHat, refMu)
	if monotone {
		t.AddFinding("amplitudes contract monotonically: the spiral converges (Theorem 1 confirmed)")
	} else {
		t.AddFinding("CONTRACTION VIOLATED")
	}
	return t, nil
}
