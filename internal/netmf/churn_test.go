package netmf

import (
	"errors"
	"math"
	"testing"

	"fpcc/internal/churn"
	"fpcc/internal/control"
	"fpcc/internal/meanfield"
	"fpcc/internal/netsim"
	"fpcc/internal/obs"
)

// churnOneNode opens both classes of the canonical one-node scenario:
// "fast" with exponential lifetimes, "slow" with Pareto lifetimes and
// a pulse envelope, so one configuration exercises single-phase and
// multi-phase kernels plus the offered-rate scaling.
func churnOneNode(t *testing.T, n int) Config {
	t.Helper()
	exp, err := churn.NewExponential(8)
	if err != nil {
		t.Fatal(err)
	}
	par, err := churn.NewPareto(1.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	pulse, err := churn.NewPulse(1.25, 0.5, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := oneNodeConfig(n)
	cfg.Classes[0].Churn = &churn.Flow{
		Arrival: float64(n) / 16, Lifetime: exp, Lambda0: 1, InitStd: 0.3,
	}
	cfg.Classes[1].Churn = &churn.Flow{
		Arrival: float64(n) / 12, Lifetime: par, Lambda0: 1, InitStd: 0.3,
	}
	cfg.Classes[1].Pulse = pulse
	return cfg
}

// TestOneNodeChurnReducesToMeanField extends the one-node reduction
// to the open system: with churn and pulse on both classes,
// meanfield.NewDensity and New on the equivalent one-node topology
// must still agree bit for bit — same phase kernels, same birth–death
// ledgers, same envelope-scaled coupling.
func TestOneNodeChurnReducesToMeanField(t *testing.T) {
	const n = 100000
	net := churnOneNode(t, n)
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
			SigmaL: cl.SigmaL, Churn: cl.Churn, Pulse: cl.Pulse,
		})
	}
	d, err := meanfield.NewDensity(mf)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 2000; step++ {
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
			if e.ClassPopulation(k) != d.ClassPopulation(k) {
				t.Fatalf("step %d: class %d live population diverged: %v vs %v",
					step, k, e.ClassPopulation(k), d.ClassPopulation(k))
			}
		}
	}
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

// TestChurnVsNetsimSmallN is the open-system acceptance cross-check:
// the mean-field birth–death limit against the packet simulator's
// session churn on a shared two-hop parking lot. The long class turns
// over (exponential lifetimes, Little population = its t = 0 size);
// the cross classes are closed. Both engines must agree on every
// hop's steady mean queue and on the churning class's steady
// throughput — the packet side carries both service noise and
// finite-N population noise, so the bound is looser than the closed
// small-N check.
func TestChurnVsNetsimSmallN(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 240-flow, 200-second packet-level simulation with churn")
	}
	const (
		perClass = 80
		share    = 10.0
		qhat     = 80.0
		mu       = 2 * perClass * share // each hop serves two classes
		arrival  = 10.0
		lifeMean = 8.0 // arrival·lifeMean = perClass: steady population = N0
	)
	lt, err := churn.NewExponential(lifeMean)
	if err != nil {
		t.Fatal(err)
	}
	law := control.AIMD{C0: 5, C1: 0.5, QHat: qhat}
	topo := netsim.Topology{
		Nodes: []netsim.Node{{Name: "hop0", Mu: mu}, {Name: "hop1", Mu: mu}},
		Links: []netsim.Link{{From: 0, To: 1}},
	}

	// Packet side: the long class is an open churn population, the
	// cross classes 80 static flows each.
	ncfg := netsim.Config{Nodes: topo.Nodes, Links: topo.Links, Seed: 4}
	template := netsim.Flow{Law: law, Route: []int{0, 1}, Interval: 0.05, Lambda0: share}
	ncfg.Churn = []netsim.ChurnClass{{
		Name: "long", Template: template,
		Arrival: arrival, Lifetime: lt, N0: perClass,
	}}
	for i := 0; i < perClass; i++ {
		ncfg.Flows = append(ncfg.Flows,
			netsim.Flow{Law: law, Route: []int{0}, Interval: 0.05, Lambda0: share},
			netsim.Flow{Law: law, Route: []int{1}, Interval: 0.05, Lambda0: share})
	}
	sim, err := netsim.New(ncfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(200, 50)
	if err != nil {
		t.Fatal(err)
	}

	// Fluid side: the same topology, the long class open with the
	// same arrival process and lifetime law.
	mcfg := Config{
		Topology: topo,
		Classes: []Class{
			{Name: "long", Law: law, N: perClass, Route: []int{0, 1},
				Lambda0: share, InitStd: 1, SigmaL: 1,
				Churn: &churn.Flow{Arrival: arrival, Lifetime: lt, Lambda0: share, InitStd: 1}},
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
	// Time-average the churning class's offered rate alongside the
	// steady queue statistics: the threshold law limit-cycles, so a
	// single end-of-run sample sits at an arbitrary phase of the
	// oscillation.
	var rateSum float64
	var rateN int
	meanQ, _, err := meanfield.NodeSteadyStats(e, 50, 200, func() {
		if e.Time() > 50 {
			rateSum += e.ClassOfferedRate(0)
			rateN++
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	for h := 0; h < 2; h++ {
		simQ := res.NodeQueue[h].Mean()
		gap := math.Abs(meanQ[h]-simQ) / simQ
		t.Logf("hop %d: netmf %.2f vs netsim %.2f (gap %.2f%%)", h, meanQ[h], simQ, 100*gap)
		if gap > 0.08 {
			t.Errorf("hop %d steady mean queue: netmf %.2f vs netsim %.2f — gap %.1f%% exceeds 8%%",
				h, meanQ[h], simQ, 100*gap)
		}
	}
	// The churning class's steady throughput: packet deliveries per
	// second vs the time-averaged fluid offered rate.
	fluidRate := rateSum / float64(rateN)
	simRate := res.ChurnThroughput[0]
	gap := math.Abs(fluidRate-simRate) / simRate
	t.Logf("long class: netmf offered %.1f vs netsim delivered %.1f pkt/s (gap %.2f%%)",
		fluidRate, simRate, 100*gap)
	if gap > 0.10 {
		t.Errorf("churning class throughput: netmf %.1f vs netsim %.1f — gap %.1f%% exceeds 10%%",
			fluidRate, simRate, 100*gap)
	}
	// And the packet-side population honors Little's law.
	live := res.ChurnLive[0].Mean()
	if g := math.Abs(live-arrival*lifeMean) / (arrival * lifeMean); g > 0.15 {
		t.Errorf("netsim live population %.1f, Little's law says %.0f", live, arrival*lifeMean)
	}
}

// TestEngineChurnInvariantsCleanRun pins the positive case at the
// networked layer: an instrumented open-system run stays
// violation-free under the extended mass budget.
func TestEngineChurnInvariantsCleanRun(t *testing.T) {
	cfg := churnOneNode(t, 1000)
	rec := (&obs.Config{Invariants: true}).Recorder("netmf")
	cfg.Obs = rec
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(10); err != nil {
		t.Fatalf("instrumented churn run failed: %v", err)
	}
	if n := rec.Violations(); n != 0 {
		t.Fatalf("clean churn run recorded %d violations", n)
	}
}

// TestEngineChurnBirthLedgerFault corrupts the birth ledger of the
// open exponential class between steps and requires the next Step to
// fail with a *obs.Violation naming the class mass field and the
// exact step — the networked counterpart of the meanfield fault test.
func TestEngineChurnBirthLedgerFault(t *testing.T) {
	cfg := churnOneNode(t, 1000)
	rec := (&obs.Config{Invariants: true}).Recorder("netmf")
	cfg.Obs = rec
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Step(); err != nil {
		t.Fatalf("clean step rejected: %v", err)
	}
	e.FaultInjectBorn(0, 0, 0.25)
	err = e.Step()
	if err == nil {
		t.Fatal("corrupted birth ledger passed the invariant checker")
	}
	var v *obs.Violation
	if !errors.As(err, &v) {
		t.Fatalf("error %v is not a *obs.Violation", err)
	}
	if want := "netmf." + cfg.ClassName(0) + ".mass"; v.Field != want {
		t.Errorf("violation field = %q, want %q", v.Field, want)
	}
	if v.Step != 2 {
		t.Errorf("violation step = %d, want 2 (the first step after corruption)", v.Step)
	}
	if rec.Violations() != 1 {
		t.Errorf("recorder counted %d violations, want 1", rec.Violations())
	}
}
