package experiments

import (
	"fpcc/internal/control"
	"fpcc/internal/netsim"
)

// The netsim experiments exercise the scenario class the seed's
// single-bottleneck world cannot express: multi-bottleneck topologies
// with cross-traffic, the setting of the DECbit evaluation
// [Ramakrishnan-Jain] and of every modern congestion-control study.

// E26ParkingLotFairness runs the classic parking-lot benchmark on the
// general-topology simulator: one long flow crosses a chain of
// identical bottleneck hops, each hop also carrying one short cross
// flow. Max-min fairness would give every flow an equal share of a
// hop; AIMD-style once-per-RTT control instead beats the long flow
// down — it observes the summed congestion of every hop (so it backs
// off for congestion anywhere on its path) and pays a longer RTT (so
// it probes more slowly), the same coupling E16 shows on the tandem
// special case.
func E26ParkingLotFairness(ctx *Ctx) (*Table, error) {
	t := &Table{
		ID:      "E26",
		Caption: "parking-lot topology: long flow vs per-hop cross flows (netsim, 3 bottlenecks)",
		Columns: []string{"flow", "hops", "RTT (s)", "throughput", "share of a hop"},
	}
	law, err := control.NewAIMD(10, 2, 12)
	if err != nil {
		return nil, err
	}
	const mu = 40.0
	cfg, err := netsim.ParkingLot(netsim.ParkingLotConfig{
		Hops: 3, Mu: mu, Delay: 0.02, Law: law,
		Lambda0: 5, MinRate: 0.5, Seed: 26,
	})
	if err != nil {
		return nil, err
	}
	sim, err := netsim.New(cfg)
	if err != nil {
		return nil, err
	}
	ctx.Stepping()
	res, err := sim.Run(3000, 300)
	if err != nil {
		return nil, err
	}
	minCross := res.Throughput[1]
	for i, tp := range res.Throughput {
		hops := len(cfg.Flows[i].Route)
		t.AddRow(cfg.FlowName(i), hops, res.FlowRTT[i], tp, tp/mu)
		if i >= 1 && tp < minCross {
			minCross = tp
		}
	}
	long := res.Throughput[0]
	if long < minCross {
		t.AddFinding("the long flow gets %.3g pk/s vs >= %.3g for every one-hop cross flow: multi-bottleneck paths are beaten below the max-min share, as in the DECbit multi-hop experiments", long, minCross)
	} else {
		t.AddFinding("UNEXPECTED: long flow %.3g not below cross flows (min %.3g)", long, minCross)
	}
	return t, nil
}

// E27BottleneckMigration sweeps uncontrolled cross-traffic injected
// at the second of two hops in series, using netsim's client of the
// engine-agnostic parallel sweep runner. With no cross traffic the slower first hop (μ1 = 40) is
// the bottleneck; once the cross rate x pushes hop 2's residual
// capacity μ2 − x below μ1, the bottleneck — the hop where the
// standing queue lives — migrates downstream, and the adaptive flow's
// throughput tracks the shrinking residual. The feedback loop keeps
// working across the migration because the flow observes its summed
// path backlog, wherever the queue happens to stand.
func E27BottleneckMigration(ctx *Ctx) (*Table, error) {
	ctx.Stepping()
	t := &Table{
		ID:      "E27",
		Caption: "cross-traffic bottleneck migration: two-hop chain, μ1=40, μ2=60 (netsim sweep)",
		Columns: []string{"cross rate", "main throughput", "mean Q hop1", "mean Q hop2", "bottleneck"},
	}
	law, err := control.NewAIMD(10, 2, 12)
	if err != nil {
		return nil, err
	}
	sweep := netsim.SweepConfig{
		Params: []netsim.Param{{Name: "cross", Values: []float64{0, 10, 20, 30, 40, 50}}},
		Build: func(values []float64, seed uint64) (netsim.Config, error) {
			return netsim.CrossChain(netsim.CrossChainConfig{
				Mu1: 40, Mu2: 60, Delay: 0.02, Law: law,
				Lambda0: 10, MinRate: 0.5, CrossRate: values[0], Seed: seed,
			})
		},
		Horizon:  1500,
		Warmup:   200,
		BaseSeed: 27,
	}
	res, err := netsim.Sweep(sweep)
	if err != nil {
		return nil, err
	}
	var mains []float64
	firstBottleneck, lastBottleneck := "", ""
	for _, c := range res.Cells {
		q1, q2 := c.MeanQueue[0], c.MeanQueue[1]
		bottleneck := "hop1"
		if q2 > q1 {
			bottleneck = "hop2"
		}
		if firstBottleneck == "" {
			firstBottleneck = bottleneck
		}
		lastBottleneck = bottleneck
		mains = append(mains, c.Throughput[0])
		t.AddRow(c.Values[0], c.Throughput[0], q1, q2, bottleneck)
	}
	declining := mains[len(mains)-1] < 0.6*mains[0]
	if firstBottleneck == "hop1" && lastBottleneck == "hop2" && declining {
		t.AddFinding("the standing queue migrates %s -> %s as cross traffic grows and the main flow's throughput falls %.3g -> %.3g pk/s, tracking hop 2's residual capacity",
			firstBottleneck, lastBottleneck, mains[0], mains[len(mains)-1])
	} else {
		t.AddFinding("UNEXPECTED: bottleneck %s -> %s, main throughput %v",
			firstBottleneck, lastBottleneck, mains)
	}
	return t, nil
}
