package experiments

import (
	"math"
	"strconv"

	"fpcc/internal/meanfield"
	"fpcc/internal/netmf"
	"fpcc/internal/stats"
	"fpcc/internal/sweep"
)

// The netmf experiments join the repository's two scaling axes:
// multi-bottleneck topologies (the netsim scenario class, E26/E27)
// evaluated in the large-N kinetic limit (the meanfield machinery,
// E28/E29). E30 re-poses the parking-lot fairness benchmark at 10⁶
// sources per class with hop count and RTT stretch as sweep grid
// dimensions; E31 re-poses the bottleneck-migration study as a
// class-mix ramp.

// E30ParkingLotLargeN sweeps the parking-lot benchmark in the
// mean-field limit: one long class crossing every hop vs one cross
// class per hop, at N = 10⁶ sources per class, over hop count × RTT
// stretch. The E26 packet-level ordering (the long flow beaten below
// every cross flow's share) reproduces in every cell — and sharpens:
// because the cross classes hold each hop's queue at the shared
// target q̂, the long class's summed path backlog sits at ≈ hops·q̂,
// permanently above threshold for ANY path of 2+ hops, so its rate
// density collapses to the σ/C1 diffusion floor — a share independent
// of hop count and RTT stretch alike. The partial share E26's long
// flow retains at small N is a finite-N effect (stochastic queue dips
// below threshold re-open its increase branch); in the kinetic limit
// the multi-bottleneck observation bias alone starves a long path
// completely.
func E30ParkingLotLargeN(ctx *Ctx) (*Table, error) {
	ctx.Stepping()
	rc := ctx.Rec()
	t := &Table{
		ID:      "E30",
		Caption: "parking-lot fairness at N=10⁶ per class: hop count × RTT stretch (netmf sweep)",
		Columns: []string{"hops", "RTT stretch", "long share", "min cross share", "cross/long", "mean Q/hop/N", "Jain"},
	}
	const n = 1_000_000
	type cellOut struct {
		long, minCross, q, jain float64
	}
	grid := sweep.Grid{Dims: []sweep.Dim{
		{Name: "hops", Values: []float64{2, 3, 5}},
		{Name: "rttstretch", Values: []float64{1, 4}},
	}}
	cells, err := sweep.Run(sweep.Config{Grid: grid, BaseSeed: 30, Workers: ctx.Inner(), Obs: rc}, func(c sweep.Cell) (cellOut, error) {
		hops := int(c.Values[0])
		cfg, err := netmf.ParkingLot(netmf.ParkingLotConfig{
			Hops: hops, N: n, Delay: 0.2, RTTStretch: c.Values[1],
		})
		if err != nil {
			return cellOut{}, err
		}
		cfg.SecondOrder = true
		cfg.Workers = c.Workers
		cfg.Obs = rc.Child("cell" + strconv.Itoa(c.Index))
		e, err := netmf.New(cfg)
		if err != nil {
			return cellOut{}, err
		}
		meanQ, rates, err := meanfield.NodeSteadyStats(e, 60, 120, nil)
		if err != nil {
			return cellOut{}, err
		}
		long := rates[0]
		minCross := rates[1]
		for _, r := range rates[2:] {
			if r < minCross {
				minCross = r
			}
		}
		var qPerHop float64
		for _, q := range meanQ {
			qPerHop += q
		}
		qPerHop /= float64(hops) * n
		// Jain's index over the full per-source allocation: n sources
		// at the long share plus n per cross class.
		alloc := make([]float64, 0, len(rates))
		alloc = append(alloc, rates...)
		return cellOut{long: long, minCross: minCross, q: qPerHop, jain: stats.JainIndex(alloc)}, nil
	})
	if err != nil {
		return nil, err
	}
	allBeaten := true
	jainRises := true
	minLong, maxLong := math.Inf(1), math.Inf(-1)
	var minRatio float64
	var prevJain [2]float64 // per RTT-stretch column, indexed by idx%2
	for i, c := range cells {
		vals := grid.Values(i)
		ratio := c.minCross / c.long
		t.AddRow(int(vals[0]), vals[1], c.long, c.minCross, ratio, c.q, c.jain)
		if c.long >= c.minCross {
			allBeaten = false
		}
		if minRatio == 0 || ratio < minRatio {
			minRatio = ratio
		}
		minLong = math.Min(minLong, c.long)
		maxLong = math.Max(maxLong, c.long)
		// Rows arrive hops-major: (2,1),(2,4),(3,1),(3,4),(5,1),(5,4).
		// Within each stretch column, Jain's index must rise with hop
		// count: the one starved class dilutes among ever more
		// fair-share cross classes.
		col := i % 2
		if prevJain[col] != 0 && c.jain <= prevJain[col] {
			jainRises = false
		}
		prevJain[col] = c.jain
	}
	floorFlat := maxLong <= 1.05*minLong
	if allBeaten && floorFlat && jainRises {
		t.AddFinding("the long class ends below every cross share in all %d cells (cross/long >= %.1fx) and is pinned at the same diffusion floor (%.3g-%.3g) regardless of hop count or RTT stretch: in the kinetic limit the summed-backlog bias alone starves any 2+-hop path — the finite share E26's long flow keeps at small N is stochastic mercy, not control fairness", len(cells), minRatio, minLong, maxLong)
	} else {
		t.AddFinding("UNEXPECTED: beaten-everywhere=%v floor-flat=%v jain-rises-with-hops=%v", allBeaten, floorFlat, jainRises)
	}
	return t, nil
}

// E31BottleneckMigrationLargeN ramps the class mix of a two-hop chain
// at N = 10⁶ total sources: an adaptive class crossing both hops
// (μ1 < μ2) against a constant-rate class injected at the second hop.
// As the cross fraction grows, hop 2's residual capacity μ2 − Λ_cross
// shrinks below μ1 and the standing fluid queue migrates downstream —
// the E27 packet-level migration, with the adaptive class's
// throughput tracking the shrinking residual across the whole ramp
// because its feedback sums the path backlog wherever the queue
// stands.
func E31BottleneckMigrationLargeN(ctx *Ctx) (*Table, error) {
	ctx.Stepping()
	rc := ctx.Rec()
	t := &Table{
		ID:      "E31",
		Caption: "bottleneck migration under a class-mix ramp at N=10⁶: adaptive 2-hop class vs constant cross class (netmf sweep)",
		Columns: []string{"cross frac", "main rate", "main throughput/N", "mean Q1/N", "mean Q2/N", "bottleneck"},
	}
	const n = 1_000_000
	type cellOut struct {
		rate, tput, q1, q2 float64
	}
	grid := sweep.Grid{Dims: []sweep.Dim{
		{Name: "crossfrac", Values: []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}},
	}}
	cells, err := sweep.Run(sweep.Config{Grid: grid, BaseSeed: 31, Workers: ctx.Inner(), Obs: rc}, func(c sweep.Cell) (cellOut, error) {
		cfg, err := netmf.CrossChain(netmf.CrossChainConfig{
			N: n, CrossFrac: c.Values[0], Delay: 0.1,
		})
		if err != nil {
			return cellOut{}, err
		}
		cfg.SecondOrder = true
		cfg.Workers = c.Workers
		cfg.Obs = rc.Child("cell" + strconv.Itoa(c.Index))
		e, err := netmf.New(cfg)
		if err != nil {
			return cellOut{}, err
		}
		meanQ, rates, err := meanfield.NodeSteadyStats(e, 60, 120, nil)
		if err != nil {
			return cellOut{}, err
		}
		nMain := float64(cfg.Classes[0].N)
		return cellOut{
			rate: rates[0],
			tput: rates[0] * nMain / n,
			q1:   meanQ[0] / n,
			q2:   meanQ[1] / n,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	firstBottleneck, lastBottleneck := "", ""
	var tputs []float64
	for i, c := range cells {
		bottleneck := "hop1"
		if c.q2 > c.q1 {
			bottleneck = "hop2"
		}
		if firstBottleneck == "" {
			firstBottleneck = bottleneck
		}
		lastBottleneck = bottleneck
		tputs = append(tputs, c.tput)
		t.AddRow(grid.Values(i)[0], c.rate, c.tput, c.q1, c.q2, bottleneck)
	}
	declining := tputs[len(tputs)-1] < 0.6*tputs[0]
	if firstBottleneck == "hop1" && lastBottleneck == "hop2" && declining {
		t.AddFinding("the standing fluid queue migrates %s -> %s as the cross class grows and the adaptive class's per-source-normalized throughput falls %.3g -> %.3g, tracking hop 2's residual capacity — the E27 migration at 10⁶ sources", firstBottleneck, lastBottleneck, tputs[0], tputs[len(tputs)-1])
	} else {
		t.AddFinding("UNEXPECTED: bottleneck %s -> %s, throughput/N %v", firstBottleneck, lastBottleneck, tputs)
	}
	return t, nil
}
