package netsim

import (
	"math"
	"reflect"
	"testing"

	"fpcc/internal/churn"
	"fpcc/internal/control"
	"fpcc/internal/traffic"
)

// churnTestConfig is the open-system reference scenario: one static
// compliant flow plus one churn class of short-lived AIMD sessions on
// a 2-hop path with a finite buffer.
func churnTestConfig(t *testing.T, arrival float64, n0 int) Config {
	t.Helper()
	lt, err := churn.NewExponential(2)
	if err != nil {
		t.Fatal(err)
	}
	law := control.AIMD{C0: 3, C1: 0.5, QHat: 12}
	return Config{
		Nodes: []Node{{Mu: 60, Buffer: 40}, {Mu: 60, Buffer: 40}},
		Links: []Link{{From: 0, To: 1, Delay: 0.02}},
		Flows: []Flow{
			{Route: []int{0, 1}, Law: law, Lambda0: 8, Interval: 0.08, MinRate: 0.1},
		},
		Churn: []ChurnClass{{
			Name: "web",
			Template: Flow{
				Route: []int{0, 1}, Law: law, Lambda0: 4, Interval: 0.08, MinRate: 0.1,
			},
			Arrival:  arrival,
			Lifetime: lt,
			N0:       n0,
		}},
		Seed: 11,
	}
}

func TestChurnValidation(t *testing.T) {
	good := churnTestConfig(t, 5, 10)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid churn config rejected: %v", err)
	}
	// Churn alone (no static flows) is a valid open system.
	noStatic := churnTestConfig(t, 5, 10)
	noStatic.Flows = nil
	if err := noStatic.Validate(); err != nil {
		t.Fatalf("churn-only config rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"no flows at all", func(c *Config) { c.Flows = nil; c.Churn = nil }},
		{"negative arrival", func(c *Config) { c.Churn[0].Arrival = -1 }},
		{"NaN arrival", func(c *Config) { c.Churn[0].Arrival = math.NaN() }},
		{"nil lifetime", func(c *Config) { c.Churn[0].Lifetime = nil }},
		{"negative N0", func(c *Config) { c.Churn[0].N0 = -1 }},
		{"forever empty", func(c *Config) { c.Churn[0].N0 = 0; c.Churn[0].Arrival = 0 }},
		{"template nil law", func(c *Config) { c.Churn[0].Template.Law = nil }},
		{"template empty route", func(c *Config) { c.Churn[0].Template.Route = nil }},
		{"template bad route", func(c *Config) { c.Churn[0].Template.Route = []int{1, 0} }},
		{"template negative rate", func(c *Config) { c.Churn[0].Template.Lambda0 = -1 }},
	}
	for _, tc := range cases {
		cfg := churnTestConfig(t, 5, 10)
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestChurnPopulationLittle holds the open system to the M/G/∞ fixed
// point: sessions arriving at α flows/s living mean m seconds settle
// at α·m live sessions, and the birth counter matches α·horizon in
// expectation.
func TestChurnPopulationLittle(t *testing.T) {
	const (
		arrival = 30.0
		mean    = 2.0 // churnTestConfig's exponential lifetime mean
		horizon = 80.0
		warmup  = 20.0
	)
	cfg := churnTestConfig(t, arrival, int(arrival*mean))
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(horizon, warmup)
	if err != nil {
		t.Fatal(err)
	}
	target := arrival * mean
	live := res.ChurnLive[0].Mean()
	if gap := math.Abs(live-target) / target; gap > 0.15 {
		t.Errorf("time-weighted live population %.1f, Little's law says %.1f (gap %.0f%%)",
			live, target, 100*gap)
	}
	born := float64(res.ChurnBorn[0])
	if gap := math.Abs(born-arrival*horizon) / (arrival * horizon); gap > 0.15 {
		t.Errorf("born %d sessions over %v s at %v/s (gap %.0f%%)",
			res.ChurnBorn[0], horizon, arrival, 100*gap)
	}
	if res.ChurnDied[0] == 0 {
		t.Error("no session ever died")
	}
	if res.ChurnDelivered[0] == 0 || res.ChurnThroughput[0] <= 0 {
		t.Error("churn sessions delivered nothing")
	}
	// Conservation: every session is initial, live, or dead.
	if got := int64(cfg.Churn[0].N0) + res.ChurnBorn[0] - res.ChurnDied[0]; got != res.ChurnLiveEnd[0] {
		t.Errorf("session ledger broken: N0 + born − died = %d, live at end = %d",
			got, res.ChurnLiveEnd[0])
	}
}

// TestChurnDeadSessionsDrain pins the death semantics: with no
// arrivals the initial population dies out, stops emitting, and the
// network drains.
func TestChurnDeadSessionsDrain(t *testing.T) {
	cfg := churnTestConfig(t, 0, 20)
	cfg.Flows = nil
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 40 s is 20 lifetime means: P(any survivor) ≈ 20·e⁻²⁰ ≈ 4e-8.
	res, err := s.Run(40, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.ChurnLiveEnd[0] != 0 {
		t.Errorf("%d of 20 no-arrival sessions still alive after 20 lifetimes", res.ChurnLiveEnd[0])
	}
	if res.ChurnDied[0] != 20 {
		t.Errorf("died = %d, want all 20", res.ChurnDied[0])
	}
	if res.ChurnBorn[0] != 0 {
		t.Errorf("born = %d without arrivals", res.ChurnBorn[0])
	}
}

// TestChurnDeterministicSeed pins reproducibility: identical seeds
// give identical results (including every churn aggregate), different
// seeds give different ones.
func TestChurnDeterministicSeed(t *testing.T) {
	run := func(seed uint64) *Result {
		t.Helper()
		cfg := churnTestConfig(t, 10, 20)
		cfg.Seed = seed
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(20, 5)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(3), run(3)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different open-system results")
	}
	if c := run(4); reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical open-system results")
	}
}

// TestBurstModulatorThinsThroughput pins the emission envelope: a
// constant-rate flow under an on/off square wave delivers its mean
// duty-cycle fraction of the unmodulated throughput.
func TestBurstModulatorThinsThroughput(t *testing.T) {
	base := func(mod traffic.Modulator) float64 {
		t.Helper()
		cfg := Config{
			Nodes: []Node{{Mu: 500}},
			Flows: []Flow{{
				Route: []int{0}, Law: ConstantRate(), Lambda0: 100,
				Interval: 0.1, Burst: mod,
			}},
			Seed: 5,
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(60, 10)
		if err != nil {
			t.Fatal(err)
		}
		return res.Throughput[0]
	}
	sw, err := traffic.NewSquareWave(1, 0, 1, 1) // on/off, 50% duty
	if err != nil {
		t.Fatal(err)
	}
	plain := base(nil)
	gated := base(sw)
	ratio := gated / plain
	if math.Abs(ratio-sw.MeanFactor()) > 0.06 {
		t.Errorf("square-wave throughput ratio %.3f, want ≈ mean factor %.2f", ratio, sw.MeanFactor())
	}
}

// TestChurnStaticFlowsUnperturbed pins the rng-stream discipline:
// adding a churn class must not change a static flow's trajectory in
// any way before the churn sessions start interacting with it —
// verified on a disjoint route, where the static flow must be
// byte-identical with and without churn for the whole run.
func TestChurnStaticFlowsUnperturbed(t *testing.T) {
	lt, err := churn.NewExponential(1)
	if err != nil {
		t.Fatal(err)
	}
	law := control.AIMD{C0: 3, C1: 0.5, QHat: 10}
	run := func(withChurn bool) *Result {
		t.Helper()
		cfg := Config{
			Nodes: []Node{{Mu: 40}, {Mu: 40}}, // no links: two isolated nodes
			Flows: []Flow{{Route: []int{0}, Law: law, Lambda0: 8, Interval: 0.08}},
			Seed:  9,
		}
		if withChurn {
			cfg.Churn = []ChurnClass{{
				Template: Flow{Route: []int{1}, Law: law, Lambda0: 4, Interval: 0.08},
				Arrival:  8, Lifetime: lt, N0: 5,
			}}
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(20, 5)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// Node 0 carries only the static flow, so its time-weighted queue
	// moments fold in the time of every packet event the flow causes.
	a, b := run(false), run(true)
	if a.NodeQueue[0] != b.NodeQueue[0] {
		t.Errorf("adding a disjoint churn class changed node 0's queue moments: %+v vs %+v", a.NodeQueue[0], b.NodeQueue[0])
	}
	if a.Delivered[0] != b.Delivered[0] || a.Dropped[0] != b.Dropped[0] {
		t.Errorf("static flow delivered/dropped %d/%d without churn, %d/%d with",
			a.Delivered[0], a.Dropped[0], b.Delivered[0], b.Dropped[0])
	}
}
