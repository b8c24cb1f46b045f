package netmf

import (
	"math"
	"testing"

	"fpcc/internal/control"
	"fpcc/internal/meanfield"
	"fpcc/internal/netsim"
)

// oneNodeConfig is a two-class scenario on a single-node topology —
// the degenerate case that must reduce to meanfield.Density.
func oneNodeConfig(n int) Config {
	qhat := 2 * float64(n)
	return Config{
		Topology: netsim.Topology{
			Nodes: []netsim.Node{{Name: "gw", Mu: float64(n)}},
		},
		Classes: []Class{
			{
				Name: "fast", Law: control.AIMD{C0: 0.5, C1: 0.5, QHat: qhat},
				N: n / 2, Delay: 0.2, Route: []int{0},
				Lambda0: 1, InitStd: 0.3, SigmaL: 0.3,
			},
			{
				Name: "slow", Law: control.AIMD{C0: 0.25, C1: 0.5, QHat: qhat},
				N: n - n/2, Delay: 0.4, Route: []int{0},
				Lambda0: 1, InitStd: 0.3, SigmaL: 0.3,
			},
		},
		LMax: 4, Bins: 96, Dt: 0.01,
		Q0: []float64{qhat},
	}
}

func TestConfigValidate(t *testing.T) {
	good := oneNodeConfig(1000)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no nodes", func(c *Config) { c.Topology.Nodes = nil }},
		{"bad service rate", func(c *Config) { c.Topology.Nodes[0].Mu = 0 }},
		{"no classes", func(c *Config) { c.Classes = nil }},
		{"nil law", func(c *Config) { c.Classes[0].Law = nil }},
		{"zero population", func(c *Config) { c.Classes[0].N = 0 }},
		{"negative delay", func(c *Config) { c.Classes[0].Delay = -1 }},
		{"NaN weight", func(c *Config) { c.Classes[0].Weight = math.NaN() }},
		{"empty route", func(c *Config) { c.Classes[0].Route = nil }},
		{"route out of range", func(c *Config) { c.Classes[0].Route = []int{3} }},
		{"unlinked hop pair", func(c *Config) {
			c.Topology.Nodes = append(c.Topology.Nodes, netsim.Node{Mu: 1})
			c.Classes[0].Route = []int{0, 1} // no link 0 -> 1
		}},
		{"initial rate beyond LMax", func(c *Config) { c.Classes[0].Lambda0 = 99 }},
		{"too few bins", func(c *Config) { c.Bins = 4 }},
		{"non-positive step", func(c *Config) { c.Dt = 0 }},
		{"Q0 length mismatch", func(c *Config) { c.Q0 = []float64{1, 2} }},
		{"negative Q0", func(c *Config) { c.Q0 = []float64{-1} }},
		{"+Inf sigma", func(c *Config) { c.Classes[0].SigmaL = math.Inf(1) }},
		{"+Inf weight", func(c *Config) { c.Classes[0].Weight = math.Inf(1) }},
		{"+Inf Q0", func(c *Config) { c.Q0 = []float64{math.Inf(1)} }},
		{"+Inf step", func(c *Config) { c.Dt = math.Inf(1) }},
	}
	for _, tc := range cases {
		cfg := oneNodeConfig(1000)
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if _, err2 := New(cfg); err2 == nil {
			t.Errorf("%s: New accepted what Validate rejected", tc.name)
		}
	}
}

// TestMassConservation: transport and diffusion are conservative up
// to the tracked negative-undershoot clipping, so every class's mass
// stays 1 + (its share of) ClippedMass.
func TestMassConservation(t *testing.T) {
	cfg, err := ParkingLot(ParkingLotConfig{Hops: 3, N: 100000, Delay: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	cfg.SecondOrder = true
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(20); err != nil {
		t.Fatal(err)
	}
	dl := e.RateGrid().Dx
	var total float64
	for k := 0; k < e.NumClasses(); k++ {
		var mass float64
		for _, v := range e.Marginal(k) {
			mass += v
		}
		total += mass * dl
	}
	want := float64(e.NumClasses()) + e.ClippedMass()
	if math.Abs(total-want) > 1e-9 {
		t.Errorf("total mass %v, want %v (classes + clipped)", total, want)
	}
	for j := 0; j < e.NumNodes(); j++ {
		if !(e.Queue(j) >= 0) {
			t.Errorf("node %d queue went negative: %v", j, e.Queue(j))
		}
	}
}

// TestCFLErrorLeavesStateUntouched: a Dt far beyond the CFL bound
// must fail without mutating densities or queues.
func TestCFLErrorLeavesStateUntouched(t *testing.T) {
	cfg := oneNodeConfig(1000)
	cfg.Dt = 10 // |g|·Dt/Δλ >> 1
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := e.Marginal(0)
	q := e.Queue(0)
	if err := e.Step(); err == nil {
		t.Fatal("CFL violation not reported")
	}
	after := e.Marginal(0)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("density mutated by failing step at bin %d", i)
		}
	}
	if e.Queue(0) != q || e.Time() != 0 {
		t.Fatalf("queue/time mutated by failing step")
	}
}

// TestSteadyStatsWindow mirrors the meanfield convention on the
// networked engine: [warm, horizon] samples, per-step averages, one
// slot per node and per class.
func TestSteadyStatsWindow(t *testing.T) {
	cfg, err := CrossChain(CrossChainConfig{N: 10000, CrossFrac: 0.3, Delay: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var steps int
	meanQ, rates, err := meanfield.NodeSteadyStats(e, 5, 10, func() { steps++ })
	if err != nil {
		t.Fatal(err)
	}
	if len(meanQ) != 2 || len(rates) != 2 {
		t.Fatalf("got %d node and %d class averages, want 2 and 2", len(meanQ), len(rates))
	}
	if steps != 2000 {
		t.Errorf("onStep ran %d times, want 2000 (horizon 10 at Dt 0.005)", steps)
	}
	for j, q := range meanQ {
		if !(q >= 0) || math.IsNaN(q) {
			t.Errorf("node %d mean queue %v", j, q)
		}
	}
	// The cross class's point mass under a zero-drift law must still
	// sit at its initial rate.
	if got := rates[1]; math.Abs(got-cfg.Classes[1].Lambda0) > e.RateGrid().Dx {
		t.Errorf("constant cross class drifted: mean rate %v, want ~%v", got, cfg.Classes[1].Lambda0)
	}
	if _, _, err := meanfield.NodeSteadyStats(e, 10, 10, nil); err == nil {
		t.Error("accepted horizon == warm")
	}
}

func TestScenarioBuildersValidate(t *testing.T) {
	if _, err := ParkingLot(ParkingLotConfig{Hops: 0, N: 10}); err == nil {
		t.Error("parking lot accepted 0 hops")
	}
	if _, err := ParkingLot(ParkingLotConfig{Hops: 2, N: 0}); err == nil {
		t.Error("parking lot accepted empty classes")
	}
	if _, err := CrossChain(CrossChainConfig{N: 1}); err == nil {
		t.Error("cross chain accepted N=1")
	}
	if _, err := CrossChain(CrossChainConfig{N: 100, CrossFrac: 1}); err == nil {
		t.Error("cross chain accepted CrossFrac=1")
	}
	for _, hops := range []int{1, 2, 5} {
		cfg, err := ParkingLot(ParkingLotConfig{Hops: hops, N: 1000, Delay: 0.05})
		if err != nil {
			t.Fatalf("hops=%d: %v", hops, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("hops=%d: built config invalid: %v", hops, err)
		}
		if len(cfg.Classes) != hops+1 || len(cfg.Topology.Nodes) != hops {
			t.Errorf("hops=%d: %d classes over %d nodes", hops, len(cfg.Classes), len(cfg.Topology.Nodes))
		}
	}
	cfg, err := CrossChain(CrossChainConfig{N: 1000, CrossFrac: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("cross chain config invalid: %v", err)
	}
	if n := cfg.Classes[0].N + cfg.Classes[1].N; n != 1000 {
		t.Errorf("classes split to %d sources, want 1000", n)
	}
}
