package experiments

import (
	"strconv"

	"fpcc/internal/churn"
	"fpcc/internal/control"
	"fpcc/internal/des"
	"fpcc/internal/meanfield"
	"fpcc/internal/netmf"
	"fpcc/internal/netsim"
	"fpcc/internal/sweep"
	"fpcc/internal/traffic"
)

// The churn/adversarial experiments open the system along the two
// axes real networks are open on: population (sessions are born and
// die — E34) and intent (sources may refuse to cooperate — E32, E33).
// E32 measures how much a population of 10⁶ compliant sources loses
// to each misbehaving-source model as the attacker's load grows; E33
// asks which gateway discipline best insulates compliant flows from
// an unresponsive blaster at packet level; E34 measures what session
// turnover does to the kinetic starvation of multi-hop paths (E30).

// E32AdversarialDegradation runs the honest-vs-adversarial split in
// the mean-field limit: 10⁶ compliant AIMD sources sharing one
// bottleneck with a misbehaving class — an unresponsive CBR blaster,
// a greedy law that ramps and never backs off, or a pulsed (on/off)
// blaster of the same mean load — swept over the attacker's load
// fraction. The honest-only baseline (load 0) is computed once; every
// adversarial cell reports the compliant per-source share, its
// degradation against that baseline, and the queue. The compliant law
// keeps the queue pinned at its own target, so the damage lands
// almost entirely on throughput: the compliant share falls by ≈ the
// attacker's load fraction, for every attacker model.
func E32AdversarialDegradation(ctx *Ctx) (*Table, error) {
	rc := ctx.Rec()
	t := &Table{
		ID:      "E32",
		Caption: "misbehaving sources vs 10⁶ compliant AIMD sources: compliant share by attacker model × load fraction (mean-field)",
		Columns: []string{"attacker", "load frac", "honest share", "degradation %", "attacker load/μ", "mean Q/N"},
	}
	const (
		n    = 1_000_000 // compliant sources
		nAtt = 200_000   // attacker sources
		mu   = float64(n)
	)
	honest := func() meanfield.Class {
		return meanfield.Class{
			Name: "honest", Law: control.AIMD{C0: 0.5, C1: 0.5, QHat: 2 * float64(n)},
			N: n, Delay: 0.2, Lambda0: 1, InitStd: 0.3, SigmaL: 0.3,
		}
	}
	build := func(classes []meanfield.Class, workers int, obs *Recorder) (*meanfield.Density, error) {
		return meanfield.NewDensity(meanfield.Config{
			Classes: classes,
			Mu:      mu, LMax: 4, Bins: 160, Dt: 0.01, Q0: 2 * float64(n),
			SecondOrder: true, Workers: workers, Obs: obs,
		})
	}

	// Honest-only baseline: the share and queue the compliant million
	// get with nobody misbehaving.
	d, err := build([]meanfield.Class{honest()}, ctx.Inner(), rc.Child("base"))
	if err != nil {
		return nil, err
	}
	ctx.Stepping()
	baseQ, baseRates, err := meanfield.SteadyStats(d, 60, 120, nil)
	if err != nil {
		return nil, err
	}
	baseShare := baseRates[0]

	attackers := []string{"cbr", "greedy", "pulse"}
	type cellOut struct {
		honest, attLoad, q float64
	}
	grid := sweep.Grid{Dims: []sweep.Dim{
		{Name: "attacker", Values: []float64{0, 1, 2}},
		{Name: "loadfrac", Values: []float64{0.1, 0.3, 0.5}},
	}}
	cells, err := sweep.Run(sweep.Config{Grid: grid, BaseSeed: 32, Workers: ctx.Inner(), Obs: rc}, func(c sweep.Cell) (cellOut, error) {
		kind, frac := int(c.Values[0]), c.Values[1]
		// The attacker's per-source peak rate: nAtt sources offering
		// frac·μ in aggregate.
		lamA := frac * mu / nAtt
		att := meanfield.Class{
			Name: "attacker", N: nAtt, Lambda0: lamA, InitStd: 0.1, SigmaL: 0.05,
		}
		meanFactor := 1.0
		switch attackers[kind] {
		case "cbr":
			att.Law = control.Unresponsive{}
		case "greedy":
			// Ramps from near zero at the compliant probing speed and
			// never takes a decrease: by the measurement window it sits
			// at its cap, the same offered load as the CBR blaster.
			law, err := control.NewGreedy(0.5, lamA)
			if err != nil {
				return cellOut{}, err
			}
			att.Law = law
			att.Lambda0 = 0.1
		case "pulse":
			// Same mean load, delivered as synchronized on/off bursts at
			// twice the CBR rate (mean envelope factor 1).
			att.Law = control.Unresponsive{}
			p, err := churn.NewPulse(2, 0, 2, 2)
			if err != nil {
				return cellOut{}, err
			}
			att.Pulse = p
			meanFactor = p.MeanFactor()
		}
		d, err := build([]meanfield.Class{honest(), att}, c.Workers, rc.Child("cell"+strconv.Itoa(c.Index)))
		if err != nil {
			return cellOut{}, err
		}
		meanQ, rates, err := meanfield.SteadyStats(d, 60, 120, nil)
		if err != nil {
			return cellOut{}, err
		}
		return cellOut{
			honest:  rates[0],
			attLoad: rates[1] * nAtt * meanFactor / mu,
			q:       meanQ / n,
		}, nil
	})
	if err != nil {
		return nil, err
	}

	t.AddRow("none", 0.0, baseShare, 0.0, 0.0, baseQ/n)
	monotone := true
	measurable := true
	worstDeg, worstKind := 0.0, ""
	for i, c := range cells {
		vals := grid.Values(i)
		kind := attackers[int(vals[0])]
		deg := 100 * (1 - c.honest/baseShare)
		t.AddRow(kind, vals[1], c.honest, deg, c.attLoad, c.q)
		// Rows arrive attacker-major: within each attacker model the
		// compliant share must fall strictly as the load fraction grows.
		if i%3 > 0 && c.honest >= cells[i-1].honest {
			monotone = false
		}
		// And the heaviest load must cost the honest million a clearly
		// measurable share for every attacker model.
		if i%3 == 2 && deg < 5 {
			measurable = false
		}
		if deg > worstDeg {
			worstDeg, worstKind = deg, kind
		}
	}
	if monotone && measurable {
		t.AddFinding("every misbehaving-source model degrades the compliant million monotonically in its load fraction — worst case %.0f%% of the per-source share lost to the %s attacker at load 0.5 — while the compliant law keeps holding the queue near its own target: the damage of an unprotected gateway lands on honest throughput, not on honest delay", worstDeg, worstKind)
	} else {
		t.AddFinding("UNEXPECTED: degradation monotone-in-load=%v measurable-at-max-load=%v", monotone, measurable)
	}
	return t, nil
}

// E33GatewayProtection is the packet-level gateway-protection
// experiment: eight compliant AIMD flows share one finite-buffer
// bottleneck with four unresponsive on/off blasters, and the only
// thing that varies besides the attacker's load is the gateway's
// feedback discipline — drop-tail (raw queue signal), DECbit-style
// EWMA averaging, RED-style random early marking. The drop policy is
// identical everywhere (the same finite buffer); what differs is how
// early and how smoothly the compliant flows are told to retreat, and
// therefore how many of their packets die in a buffer the attacker
// has filled.
func E33GatewayProtection(ctx *Ctx) (*Table, error) {
	ctx.Stepping()
	rc := ctx.Rec()
	t := &Table{
		ID:      "E33",
		Caption: "gateway protection under an unresponsive on/off blaster: compliant goodput and loss by discipline × attacker load (netsim)",
		Columns: []string{"gateway", "load frac", "honest goodput", "retained frac", "honest loss %", "attacker goodput", "mean Q"},
	}
	const (
		mu      = 50.0
		buffer  = 30
		nHonest = 8
		nAtt    = 4
		horizon = 300.0
		warmup  = 60.0
	)
	gateways := []string{"droptail", "ewma", "red"}
	type cellOut struct {
		honest, loss, att, q float64
	}
	grid := sweep.Grid{Dims: []sweep.Dim{
		{Name: "gateway", Values: []float64{0, 1, 2}},
		{Name: "loadfrac", Values: []float64{0, 0.4, 0.8}},
	}}
	cells, err := sweep.Run(sweep.Config{Grid: grid, BaseSeed: 33, Workers: ctx.Inner(), Obs: rc}, func(c sweep.Cell) (cellOut, error) {
		kind, frac := int(c.Values[0]), c.Values[1]
		// Gateways are stateful: construct a fresh instance per cell.
		var gw des.Gateway
		var err error
		switch gateways[kind] {
		case "ewma":
			gw, err = des.NewEWMAGateway(1.0)
		case "red":
			gw, err = des.NewREDGateway(5, 25, 0.3, 0.5)
		}
		if err != nil {
			return cellOut{}, err
		}
		cfg := netsim.Config{
			Nodes: []netsim.Node{{Name: "gw", Mu: mu, Buffer: buffer, Gateway: gw}},
			Seed:  c.Seed,
		}
		honestLaw := control.AIMD{C0: 2, C1: 0.5, QHat: 12}
		for i := 0; i < nHonest; i++ {
			cfg.Flows = append(cfg.Flows, netsim.Flow{
				Name: "honest" + strconv.Itoa(i), Law: honestLaw, Route: []int{0},
				Lambda0: 4, Interval: 0.1, MinRate: 0.25,
			})
		}
		// The blasters: unresponsive CBR at mean load frac·μ total,
		// duty-cycled to twice that rate in synchronized bursts (mean
		// envelope factor 1) — the burst shape is what overwhelms a
		// drop-tail buffer. At load 0 they are silent and the cell is
		// the discipline's honest-only baseline.
		for i := 0; i < nAtt; i++ {
			sw, err := traffic.NewSquareWave(2, 0, 1.5, 1.5)
			if err != nil {
				return cellOut{}, err
			}
			cfg.Flows = append(cfg.Flows, netsim.Flow{
				Name: "att" + strconv.Itoa(i), Law: control.Unresponsive{}, Route: []int{0},
				Lambda0: frac * mu / nAtt, Interval: 0.5, Burst: sw,
			})
		}
		sim, err := netsim.New(cfg)
		if err != nil {
			return cellOut{}, err
		}
		res, err := sim.Run(horizon, warmup)
		if err != nil {
			return cellOut{}, err
		}
		var honest, att float64
		var delivered, dropped int64
		for i := 0; i < nHonest; i++ {
			honest += res.Throughput[i]
			delivered += res.Delivered[i]
			dropped += res.Dropped[i]
		}
		for i := nHonest; i < nHonest+nAtt; i++ {
			att += res.Throughput[i]
		}
		var loss float64
		if delivered+dropped > 0 {
			loss = 100 * float64(dropped) / float64(delivered+dropped)
		}
		return cellOut{honest: honest, loss: loss, att: att, q: res.NodeQueue[0].Mean()}, nil
	})
	if err != nil {
		return nil, err
	}

	// Retained fraction: each cell's compliant goodput against the
	// same discipline's unattacked (load 0) baseline — the protection
	// metric proper, independent of the disciplines' differing
	// honest-only operating points.
	retained := func(i int) float64 { return cells[i].honest / cells[(i/3)*3].honest }
	for i, c := range cells {
		vals := grid.Values(i)
		t.AddRow(gateways[int(vals[0])], vals[1], c.honest, retained(i), c.loss, c.att, c.q)
	}
	// Protection at the heaviest attack (load 0.8, the third cell of
	// each gateway's row group): does any discipline beat drop-tail
	// for the compliant flows?
	dt, ewma, red := cells[2], cells[5], cells[8]
	droptailDegrades := cells[0].honest > cells[1].honest && cells[1].honest > cells[2].honest
	best, bestName, bestIdx := ewma, "ewma/DECbit", 5
	if red.honest > ewma.honest {
		best, bestName, bestIdx = red, "red/early-marking", 8
	}
	if droptailDegrades && best.honest > dt.honest && retained(bestIdx) > retained(2) {
		t.AddFinding("the %s gateway insulates the compliant flows best under the heaviest attack: goodput %.1f vs drop-tail's %.1f pkt/s, retaining %.0f%% of its unattacked baseline vs %.0f%% — the probabilistic mark keeps the honest increase branch alive while the blaster holds the raw queue above every threshold, at the price of a longer queue (%.1f vs %.1f) and a higher loss rate (%.1f%% vs %.1f%%): protection here is a throughput-delay trade, not a free lunch", bestName, best.honest, dt.honest, 100*retained(bestIdx), 100*retained(2), best.q, dt.q, best.loss, dt.loss)
	} else {
		t.AddFinding("UNEXPECTED: droptail-degrades=%v best=%s goodput %.1f vs droptail %.1f, retained %.2f vs %.2f", droptailDegrades, bestName, best.honest, dt.honest, retained(bestIdx), retained(2))
	}
	if ewma.honest < dt.honest {
		t.AddFinding("EWMA averaging protects worse than the raw queue here (%.1f vs %.1f pkt/s): its first-order lag delays the honest retreat past the blaster's burst edge, so the honest flows keep sending into a buffer that is already full — averaging helps against noise (E20), not against adversarial bursts", ewma.honest, dt.honest)
	}
	return t, nil
}

// E34ChurnTurnover opens E30's starved long class: on a two-hop
// parking lot at 10⁶ sources per class, the path-crossing class turns
// over — sessions die at rate 1/mean-lifetime and are replaced by
// Poisson arrivals that enter at the initial-rate blob, far above the
// diffusion floor the closed-system class collapses to. Swept over
// turnover (three mean lifetimes at fixed steady population) and
// lifetime law (exponential vs heavy-tailed Pareto of the same mean).
// The faster the population turns over, the larger its perpetually
// young fraction and the higher the class's share: churn, not control
// fairness, is what keeps multi-hop paths alive in the kinetic limit.
func E34ChurnTurnover(ctx *Ctx) (*Table, error) {
	rc := ctx.Rec()
	t := &Table{
		ID:      "E34",
		Caption: "session churn vs kinetic starvation on a two-hop path at N=10⁶: long-class share by turnover × lifetime law (netmf)",
		Columns: []string{"lifetime", "mean life s", "turnover /s", "live pop/N", "long share", "min cross share", "mean Q/hop/N"},
	}
	const n = 1_000_000
	law := control.AIMD{C0: 0.5, C1: 0.5, QHat: 2 * float64(n)}
	build := func(ch *churn.Flow, workers int, obs *Recorder) (*netmf.Engine, error) {
		return netmf.New(netmf.Config{
			Topology: netsim.Topology{
				Nodes: []netsim.Node{{Name: "hop0", Mu: 2 * n}, {Name: "hop1", Mu: 2 * n}},
				Links: []netsim.Link{{From: 0, To: 1}},
			},
			Classes: []netmf.Class{
				{Name: "long", Law: law, N: n, Route: []int{0, 1},
					Lambda0: 1, InitStd: 0.3, SigmaL: 0.3, Churn: ch},
				{Name: "cross0", Law: law, N: n, Route: []int{0},
					Lambda0: 1, InitStd: 0.3, SigmaL: 0.3},
				{Name: "cross1", Law: law, N: n, Route: []int{1},
					Lambda0: 1, InitStd: 0.3, SigmaL: 0.3},
			},
			LMax: 4, Bins: 160, Dt: 0.01, SecondOrder: true,
			Workers: workers, Obs: obs,
		})
	}
	measure := func(e *netmf.Engine) (pop, long, minCross, qPerHop float64, err error) {
		var popSum float64
		var popN int
		meanQ, rates, err := meanfield.NodeSteadyStats(e, 60, 120, func() {
			if e.Time() >= 60 {
				popSum += e.ClassPopulation(0)
				popN++
			}
		})
		if err != nil {
			return 0, 0, 0, 0, err
		}
		long, minCross = rates[0], rates[1]
		if rates[2] < minCross {
			minCross = rates[2]
		}
		qPerHop = (meanQ[0] + meanQ[1]) / (2 * n)
		return popSum / float64(popN) / n, long, minCross, qPerHop, nil
	}

	// Closed-system baseline: the E30 starvation this experiment
	// opens. (No churn: the population column is pinned at 1.)
	e, err := build(nil, ctx.Inner(), rc.Child("base"))
	if err != nil {
		return nil, err
	}
	ctx.Stepping()
	_, baseShare, baseCross, baseQ, err := measure(e)
	if err != nil {
		return nil, err
	}

	laws := []string{"exponential", "pareto"}
	type cellOut struct {
		pop, long, minCross, q float64
	}
	grid := sweep.Grid{Dims: []sweep.Dim{
		{Name: "meanlife", Values: []float64{16, 4, 1}},
		{Name: "lifelaw", Values: []float64{0, 1}},
	}}
	cells, err := sweep.Run(sweep.Config{Grid: grid, BaseSeed: 34, Workers: ctx.Inner(), Obs: rc}, func(c sweep.Cell) (cellOut, error) {
		mean, kind := c.Values[0], int(c.Values[1])
		var lt churn.Lifetime
		var err error
		switch laws[kind] {
		case "exponential":
			lt, err = churn.NewExponential(mean)
		case "pareto":
			// Pareto(α=1.5, xm = mean/3) has mean xm·α/(α−1) = mean:
			// the same turnover with a heavy-tailed lifetime.
			lt, err = churn.NewPareto(1.5, mean/3)
		}
		if err != nil {
			return cellOut{}, err
		}
		// Arrival = N/mean holds the Little's-law steady population at
		// exactly the closed system's N, so only the turnover varies.
		e, err := build(&churn.Flow{
			Arrival: n / mean, Lifetime: lt, Lambda0: 1, InitStd: 0.3,
		}, c.Workers, rc.Child("cell"+strconv.Itoa(c.Index)))
		if err != nil {
			return cellOut{}, err
		}
		pop, long, minCross, q, err := measure(e)
		if err != nil {
			return cellOut{}, err
		}
		return cellOut{pop: pop, long: long, minCross: minCross, q: q}, nil
	})
	if err != nil {
		return nil, err
	}

	t.AddRow("closed", "∞", 0.0, 1.0, baseShare, baseCross, baseQ)
	sharesRise := true
	allAboveClosed := true
	littleHolds := true
	var prevShare [2]float64
	var maxShare float64
	for i, c := range cells {
		vals := grid.Values(i)
		kind := int(vals[1])
		t.AddRow(laws[kind], vals[0], 1/vals[0], c.pop, c.long, c.minCross, c.q)
		// Rows arrive lifetime-major, (mean, law) pairs with the law
		// varying fastest: within each law column the share must rise
		// strictly as the mean lifetime falls (turnover grows).
		if prevShare[kind] != 0 && c.long <= prevShare[kind] {
			sharesRise = false
		}
		prevShare[kind] = c.long
		if c.long <= baseShare {
			allAboveClosed = false
		}
		// Exponential lifetimes hold the M/G/∞ fixed point exactly
		// (single phase, fully relaxed); the fitted Pareto's slow tail
		// phases are allowed their transient.
		if kind == 0 && (c.pop < 0.99 || c.pop > 1.01) {
			littleHolds = false
		}
		if c.long > maxShare {
			maxShare = c.long
		}
	}
	if sharesRise && allAboveClosed && littleHolds {
		t.AddFinding("session turnover rescues the starved long class: its share rises monotonically with turnover for both lifetime laws (up to %.3g vs %.3g closed, a %.0fx recovery at mean life 1 s) while the live population holds Little's law — newborn sessions re-enter at the arrival blob faster than the summed-backlog bias can beat them down, so the E30 starvation is a property of closed populations, not of multi-hop paths", maxShare, baseShare, maxShare/baseShare)
	} else {
		t.AddFinding("UNEXPECTED: share-rises-with-turnover=%v all-above-closed=%v little-holds=%v", sharesRise, allAboveClosed, littleHolds)
	}
	return t, nil
}
