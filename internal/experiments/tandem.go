package experiments

import (
	"fmt"

	"fpcc/internal/control"
	"fpcc/internal/des"
)

// E16TandemHopCount reproduces, in an actual multi-hop network, the
// observation the paper's introduction cites from Zhang [Zha 89] and
// Jacobson [Jac 88]: "connections with larger number of hops receive
// a poorer share of an intermediate resource than those with a
// smaller number of hops." Flows with window-per-RTT probing (rate
// gain C0 = a/RTT) cross 1..4 store-and-forward hops; all share one
// bottleneck hop.
func E16TandemHopCount(ctx *Ctx) (*Table, error) {
	t := &Table{
		ID:      "E16",
		Caption: "share of a common bottleneck vs path length (tandem network, Zhang/Jacobson observation)",
		Columns: []string{"flow", "hops", "RTT (s)", "throughput", "share"},
	}
	const a = 1.2
	const prop = 0.02
	rttOf := func(hops int) float64 { return 2 * prop * float64(hops) }
	mkLaw := func(hops int) control.AIMD {
		return control.AIMD{C0: a / rttOf(hops), C1: 2, QHat: 12}
	}
	// Hop 1 is the shared bottleneck (μ=40); the rest are fast
	// transit hops (μ=200) that only lengthen paths.
	cfg := des.TandemConfig{
		Mus:       []float64{200, 40, 200, 200, 200},
		PropDelay: prop,
		Seed:      17,
		Sources: []des.TandemSource{
			{Law: mkLaw(1), Path: []int{1}, Lambda0: 5, MinRate: 0.5},
			{Law: mkLaw(2), Path: []int{0, 1}, Lambda0: 5, MinRate: 0.5},
			{Law: mkLaw(4), Path: []int{0, 1, 2, 3}, Lambda0: 5, MinRate: 0.5},
		},
	}
	sim, err := des.NewTandem(cfg)
	if err != nil {
		return nil, err
	}
	ctx.Stepping()
	res, err := sim.Run(4000, 500)
	if err != nil {
		return nil, err
	}
	var total float64
	for _, tp := range res.Throughput {
		total += tp
	}
	hops := []int{1, 2, 4}
	monotone := true
	for i, tp := range res.Throughput {
		t.AddRow(fmt.Sprintf("F%d", i+1), hops[i], sim.RTT(i), tp, tp/total)
		if i > 0 && tp >= res.Throughput[i-1] {
			monotone = false
		}
	}
	if monotone {
		t.AddFinding("share falls monotonically with hop count: the longer the path, the poorer the share — the multi-hop unfairness the paper's introduction cites")
	} else {
		t.AddFinding("UNEXPECTED: throughputs %v not monotone in hop count", res.Throughput)
	}
	return t, nil
}
