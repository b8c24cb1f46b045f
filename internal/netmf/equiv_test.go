package netmf

import (
	"math"
	"testing"

	"fpcc/internal/control"
	"fpcc/internal/meanfield"
	"fpcc/internal/netsim"
)

// TestOneNodeReducesToMeanField pins the two constructions of the one
// kinetic engine to each other: meanfield.NewDensity, which builds the
// single-bottleneck network without a topology, and New on the
// equivalent one-node topology must step bit for bit alike — same
// routes, same coupling order, same history — over a heterogeneous
// two-class run with delays and diffusion exercised.
func TestOneNodeReducesToMeanField(t *testing.T) {
	const n = 100000
	net := oneNodeConfig(n)
	net.SecondOrder = true
	e, err := New(net)
	if err != nil {
		t.Fatal(err)
	}
	mf := meanfield.Config{
		Mu:   net.Topology.Nodes[0].Mu,
		LMax: net.LMax, Bins: net.Bins, Dt: net.Dt,
		Q0: net.Q0[0], SecondOrder: true,
	}
	for _, cl := range net.Classes {
		mf.Classes = append(mf.Classes, meanfield.Class{
			Name: cl.Name, Law: cl.Law, N: cl.N, Weight: cl.Weight,
			Delay: cl.Delay, Lambda0: cl.Lambda0, InitStd: cl.InitStd,
			SigmaL: cl.SigmaL,
		})
	}
	d, err := meanfield.NewDensity(mf)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 3000; step++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		if err := d.Step(); err != nil {
			t.Fatal(err)
		}
		if e.Queue(0) != d.Queue() {
			t.Fatalf("step %d: queue diverged: netmf %v vs meanfield %v",
				step, e.Queue(0), d.Queue())
		}
		for k := 0; k < e.NumClasses(); k++ {
			if e.ClassMeanRate(k) != d.ClassMeanRate(k) {
				t.Fatalf("step %d: class %d mean rate diverged: %v vs %v",
					step, k, e.ClassMeanRate(k), d.ClassMeanRate(k))
			}
		}
	}
	// The marginals themselves must agree bin for bin at the end.
	for k := 0; k < e.NumClasses(); k++ {
		em, dm := e.Marginal(k), d.Marginal(k)
		for i := range em {
			if em[i] != dm[i] {
				t.Fatalf("class %d marginal bin %d: %v vs %v", k, i, em[i], dm[i])
			}
		}
	}
	if e.ClippedMass() != d.ClippedMass() {
		t.Errorf("clipped-mass audit diverged: %v vs %v", e.ClippedMass(), d.ClippedMass())
	}
}

// TestVsNetsimSmallN is the second acceptance cross-check: the fluid
// limit against the packet-level simulator on a shared two-hop
// parking-lot topology at an N where both are feasible (80 sources
// per class, 240 Poisson flows total). The packet queues carry
// stochastic service noise the fluid queues do not, so the bound is
// the convergence-test tolerance: every hop's steady mean queue
// within 5%.
func TestVsNetsimSmallN(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 240-flow, 200-second packet-level simulation")
	}
	const (
		perClass = 80
		share    = 10.0
		qhat     = 80.0
		mu       = 2 * perClass * share // each hop serves two classes
	)
	law := control.AIMD{C0: 5, C1: 0.5, QHat: qhat}
	topo := netsim.Topology{
		Nodes: []netsim.Node{{Name: "hop0", Mu: mu}, {Name: "hop1", Mu: mu}},
		Links: []netsim.Link{{From: 0, To: 1}},
	}

	// Packet side: 80 individual flows per class, instantaneous
	// feedback (control fidelity, not delay, is under test here) on a
	// fast control clock.
	ncfg := netsim.Config{Nodes: topo.Nodes, Links: topo.Links, Seed: 4}
	addFlows := func(route []int) {
		for i := 0; i < perClass; i++ {
			ncfg.Flows = append(ncfg.Flows, netsim.Flow{
				Law: law, Route: route, Interval: 0.05, Lambda0: share,
			})
		}
	}
	addFlows([]int{0, 1})
	addFlows([]int{0})
	addFlows([]int{1})
	sim, err := netsim.New(ncfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(200, 50)
	if err != nil {
		t.Fatal(err)
	}

	// Fluid side: the same topology, three 80-source classes.
	mcfg := Config{
		Topology: topo,
		Classes: []Class{
			{Name: "long", Law: law, N: perClass, Route: []int{0, 1},
				Lambda0: share, InitStd: 1, SigmaL: 1},
			{Name: "cross0", Law: law, N: perClass, Route: []int{0},
				Lambda0: share, InitStd: 1, SigmaL: 1},
			{Name: "cross1", Law: law, N: perClass, Route: []int{1},
				Lambda0: share, InitStd: 1, SigmaL: 1},
		},
		LMax: 40, Bins: 160, Dt: 0.01, SecondOrder: true,
	}
	e, err := New(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	meanQ, _, err := meanfield.NodeSteadyStats(e, 50, 200, nil)
	if err != nil {
		t.Fatal(err)
	}

	for h := 0; h < 2; h++ {
		simQ := res.NodeQueue[h].Mean()
		gap := math.Abs(meanQ[h]-simQ) / simQ
		t.Logf("hop %d: netmf %.2f vs netsim %.2f (gap %.2f%%)", h, meanQ[h], simQ, 100*gap)
		if gap > 0.05 {
			t.Errorf("hop %d steady mean queue: netmf %.2f vs netsim %.2f — gap %.1f%% exceeds 5%%",
				h, meanQ[h], simQ, 100*gap)
		}
	}
}

// TestParkingLotFairnessOrderingMillion is the third acceptance
// cross-check: at N = 10⁶ sources per class the networked mean-field
// engine must reproduce the E26 parking-lot fairness ordering — the
// long class, observing the summed backlog of every hop and paying a
// hop-proportional RTT, ends below every one-hop cross class's
// per-source share.
func TestParkingLotFairnessOrderingMillion(t *testing.T) {
	cfg, err := ParkingLot(ParkingLotConfig{Hops: 3, N: 1_000_000, Delay: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	cfg.SecondOrder = true
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, rates, err := meanfield.NodeSteadyStats(e, 60, 120, nil)
	if err != nil {
		t.Fatal(err)
	}
	long := rates[0]
	for k := 1; k < len(rates); k++ {
		t.Logf("%s share %.4f vs long %.4f", cfg.ClassName(k), rates[k], long)
		if long >= rates[k] {
			t.Errorf("long class share %.4f not below %s's %.4f — parking-lot ordering lost in the large-N limit",
				long, cfg.ClassName(k), rates[k])
		}
	}
}
