package experiments

import (
	"fmt"

	"fpcc/internal/control"
	"fpcc/internal/des"
	"fpcc/internal/fluid"
	"fpcc/internal/stats"
)

// E3QueueTrace regenerates the Figure 1 style artifact: a sample
// queue-length trajectory of the packet-level system under adaptive
// control, summarized by trace statistics (the full trace is available
// through cmd/ccsim).
func E3QueueTrace(ctx *Ctx) (*Table, error) {
	rc := ctx.Rec()
	t := &Table{
		ID:      "E3",
		Caption: "packet-level queue trace under AIMD control (Figure 1 analogue)",
		Columns: []string{"metric", "value"},
	}
	const mu = 50.0
	cfg := des.Config{
		Mu:          mu,
		Obs:         rc,
		Seed:        101,
		SampleEvery: 0.1,
		Sources: []des.SourceConfig{{
			Law:      control.AIMD{C0: 20, C1: 2, QHat: 15},
			Interval: 0.05,
			Lambda0:  5,
			MinRate:  1,
		}},
	}
	sim, err := des.New(cfg)
	if err != nil {
		return nil, err
	}
	ctx.Stepping()
	res, err := sim.Run(400, 50)
	if err != nil {
		return nil, err
	}
	meanQ := res.QueueStats.Mean()
	stdQ := res.QueueStats.StdDev()
	osc := stats.MeasureOscillation(res.TraceT, res.TraceQ, 50, 5)
	t.AddRow("horizon (s)", 400.0)
	t.AddRow("mean queue", meanQ)
	t.AddRow("queue std dev", stdQ)
	t.AddRow("utilization", res.Throughput[0]/mu)
	t.AddRow("oscillation cycles seen", osc.NumCycles)
	t.AddRow("oscillation amplitude", osc.Amplitude)
	t.AddFinding("queue hovers near q̂=15 with stochastic oscillation around it, as in the paper's Figure 1 sketch")
	return t, nil
}

// E4FairnessEqual verifies the Section 6 fairness result: sources
// using identical parameters converge to equal shares, in both the
// deterministic fluid system and the packet simulator.
func E4FairnessEqual(ctx *Ctx) (*Table, error) {
	ctx.Stepping()
	t := &Table{
		ID:      "E4",
		Caption: "equal-parameter sources share the bottleneck equally (Section 6)",
		Columns: []string{"system", "sources", "shares", "Jain index"},
	}
	law := refLaw()

	// Deterministic fluid system, 4 sources, wildly unequal starts.
	const n = 4
	srcs := make([]fluid.Source, n)
	for i := range srcs {
		srcs[i] = fluid.Source{Law: law, Lambda0: float64(2 * i)}
	}
	m := fluid.Model{Mu: 12, Q0: 0, Sources: srcs}
	rates := fluid.RateMeans{From: 1500}
	if err := m.Stream(2000, 1e-3, 200, rates.Add); err != nil {
		return nil, err
	}
	means := rates.Means()
	jainFluid := stats.JainIndex(means)
	t.AddRow("fluid", n, fmtShares(means), jainFluid)

	// Packet-level system, 3 sources.
	dlaw := control.AIMD{C0: 10, C1: 2, QHat: 12}
	dsrcs := make([]des.SourceConfig, 3)
	for i := range dsrcs {
		dsrcs[i] = des.SourceConfig{Law: dlaw, Interval: 0.05, Lambda0: float64(1 + 10*i), MinRate: 0.5}
	}
	sim, err := des.New(des.Config{Mu: 60, Seed: 11, Sources: dsrcs})
	if err != nil {
		return nil, err
	}
	res, err := sim.Run(3000, 500)
	if err != nil {
		return nil, err
	}
	jainDES := stats.JainIndex(res.Throughput)
	t.AddRow("packet DES", 3, fmtShares(res.Throughput), jainDES)

	if jainFluid > 0.99 && jainDES > 0.98 {
		t.AddFinding("Jain index ~1 in both systems: equal parameters => equal (fair) shares, per Section 6")
	} else {
		t.AddFinding("FAIRNESS NOT REACHED: Jain fluid %.4f, DES %.4f", jainFluid, jainDES)
	}
	return t, nil
}

func fmtShares(x []float64) string {
	var total float64
	for _, v := range x {
		total += v
	}
	s := ""
	for i, v := range x {
		if i > 0 {
			s += "/"
		}
		s += fmt.Sprintf("%.3f", v/total)
	}
	return s
}

// E5FairnessHetero verifies Section 6's exact-share law: sources with
// different (C0, C1) receive shares proportional to C0/C1.
func E5FairnessHetero(ctx *Ctx) (*Table, error) {
	ctx.Stepping()
	t := &Table{
		ID:      "E5",
		Caption: "heterogeneous-parameter shares vs the C0/C1 prediction (Section 6)",
		Columns: []string{"source", "C0", "C1", "predicted share", "measured share", "rel err"},
	}
	laws := []control.AIMD{
		{C0: 2, C1: 0.8, QHat: refQHat},
		{C0: 1, C1: 0.8, QHat: refQHat},
		{C0: 2, C1: 1.6, QHat: refQHat},
	}
	pred, err := fluid.PredictedShares(laws)
	if err != nil {
		return nil, err
	}
	srcs := make([]fluid.Source, len(laws))
	for i, l := range laws {
		srcs[i] = fluid.Source{Law: l, Lambda0: 1}
	}
	m := fluid.Model{Mu: refMu, Q0: 0, Sources: srcs}
	rates := fluid.RateMeans{From: 3000}
	if err := m.Stream(4000, 1e-3, 200, rates.Add); err != nil {
		return nil, err
	}
	means := rates.Means()
	var total float64
	for _, v := range means {
		total += v
	}
	worst := 0.0
	for i, l := range laws {
		share := means[i] / total
		rel := (share - pred[i]) / pred[i]
		if r := absf(rel); r > worst {
			worst = r
		}
		t.AddRow(fmt.Sprintf("S%d", i+1), l.C0, l.C1, pred[i], share, rel)
	}
	if worst < 0.07 {
		t.AddFinding("measured shares match λ_i ∝ C0_i/C1_i within %.1f%%: the exact-share law of Section 6 holds", worst*100)
	} else {
		t.AddFinding("SHARE LAW DEVIATION %.1f%%", worst*100)
	}
	return t, nil
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
