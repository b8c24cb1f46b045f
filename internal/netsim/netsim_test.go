package netsim

import (
	"math"
	"testing"

	"fpcc/internal/control"
	"fpcc/internal/des"
	"fpcc/internal/queue"
)

func testLaw(t *testing.T) control.AIMD {
	t.Helper()
	law, err := control.NewAIMD(10, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	return law
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// TestMM1Anchor holds the engine to a closed form, as des's test of
// the same name does: one constant-rate Poisson flow into one
// exponential server with an infinite buffer is an M/M/1 queue.
func TestMM1Anchor(t *testing.T) {
	const lam, mu = 6.0, 10.0
	s, err := New(Config{
		Nodes: []Node{{Mu: mu}},
		Flows: []Flow{{Law: control.Unresponsive{}, Route: []int{0}, Interval: 1000, Lambda0: lam}},
		Seed:  7,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(30000, 2000)
	if err != nil {
		t.Fatal(err)
	}
	q, err := queue.NewMM1(lam, mu)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.NodeQueue[0].Mean(), q.MeanNumber(); math.Abs(got-want)/want > 0.08 {
		t.Errorf("mean queue %v, want M/M/1 value %v", got, want)
	}
	if got := res.Throughput[0]; math.Abs(got-lam)/lam > 0.05 {
		t.Errorf("throughput %v, want ~%v", got, lam)
	}
}

// TestRunValidation: Run rejects, before simulating anything, a
// horizon that is not finite and positive and a warmup outside
// [0, horizon) — des.CheckRunWindow, the check of every packet engine.
func TestRunValidation(t *testing.T) {
	for _, w := range [][2]float64{
		{0, 0}, {math.NaN(), 0}, {math.Inf(1), 0},
		{10, 10}, {10, -1}, {10, math.NaN()}, {10, math.Inf(1)},
	} {
		s, err := New(Config{
			Nodes: []Node{{Mu: 60}},
			Flows: []Flow{{Law: testLaw(t), Route: []int{0}, Lambda0: 10, Interval: 0.1}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(w[0], w[1]); err == nil {
			t.Errorf("accepted horizon %v / warmup %v", w[0], w[1])
		}
	}
}

func TestValidateErrors(t *testing.T) {
	law := testLaw(t)
	node := Node{Mu: 60}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no nodes", Config{Flows: []Flow{{Law: law, Route: []int{0}, Interval: 1}}}},
		{"bad mu", Config{Nodes: []Node{{Mu: 0}}, Flows: []Flow{{Law: law, Route: []int{0}, Interval: 1}}}},
		{"negative buffer", Config{Nodes: []Node{{Mu: 60, Buffer: -1}}, Flows: []Flow{{Law: law, Route: []int{0}, Interval: 1}}}},
		{"no flows", Config{Nodes: []Node{node}}},
		{"nil law", Config{Nodes: []Node{node}, Flows: []Flow{{Route: []int{0}, Interval: 1}}}},
		{"empty route", Config{Nodes: []Node{node}, Flows: []Flow{{Law: law, Interval: 1}}}},
		{"route out of range", Config{Nodes: []Node{node}, Flows: []Flow{{Law: law, Route: []int{1}, Interval: 1}}}},
		{"unlinked hop pair", Config{Nodes: []Node{node, node}, Flows: []Flow{{Law: law, Route: []int{0, 1}, Interval: 1}}}},
		{"link out of range", Config{Nodes: []Node{node}, Links: []Link{{From: 0, To: 3}}, Flows: []Flow{{Law: law, Route: []int{0}, Interval: 1}}}},
		{"self-loop link", Config{Nodes: []Node{node}, Links: []Link{{From: 0, To: 0}}, Flows: []Flow{{Law: law, Route: []int{0}, Interval: 1}}}},
		{"duplicate link", Config{Nodes: []Node{node, node}, Links: []Link{{From: 0, To: 1}, {From: 0, To: 1}}, Flows: []Flow{{Law: law, Route: []int{0}, Interval: 1}}}},
		{"zero interval zero rtt", Config{Nodes: []Node{node}, Flows: []Flow{{Law: law, Route: []int{0}}}}},
		{"negative feedback delay", Config{Nodes: []Node{node}, Flows: []Flow{{Law: law, Route: []int{0}, Interval: 1, FeedbackDelay: -1}}}},
		{"infinite ingress delay", Config{Nodes: []Node{node}, Flows: []Flow{{Law: law, Route: []int{0}, Interval: 1, IngressDelay: math.Inf(1)}}}},
		{"infinite return delay", Config{Nodes: []Node{node}, Flows: []Flow{{Law: law, Route: []int{0}, Interval: 1, ReturnDelay: math.Inf(1)}}}},
		{"infinite feedback delay", Config{Nodes: []Node{node}, Flows: []Flow{{Law: law, Route: []int{0}, Interval: 1, FeedbackDelay: math.Inf(1)}}}},
		{"route delay overflows", Config{Nodes: []Node{node, node, node}, Links: []Link{{From: 0, To: 1, Delay: 1e308}, {From: 1, To: 2, Delay: 1e308}}, Flows: []Flow{{Law: law, Route: []int{0, 1, 2}, Interval: 1}}}},
	}
	for _, tc := range cases {
		if err := tc.cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid config", tc.name)
		}
	}
	// The overflowing route is an error for every route-checking
	// caller, not only Validate.
	over := Topology{Nodes: []Node{node, node, node}, Links: []Link{{From: 0, To: 1, Delay: 1e308}, {From: 1, To: 2, Delay: 1e308}}}
	if d, err := over.PathDelay([]int{0, 1, 2}); err == nil {
		t.Errorf("PathDelay accepted an overflowing route (delay %v)", d)
	}
	if err := over.ValidateRoute([]int{0, 1, 2}); err == nil {
		t.Error("ValidateRoute accepted an overflowing route")
	}
	good := Config{
		Nodes: []Node{node, node},
		Links: []Link{{From: 0, To: 1, Delay: 0.01}},
		Flows: []Flow{{Law: law, Route: []int{0, 1}, Interval: 0.05}},
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestSingleNodeMatchesEngine holds the degenerate one-node topology
// to the seed simulator it generalizes: same seed, same sources, the
// mean queue length and total throughput must agree within 1%.
func TestSingleNodeMatchesEngine(t *testing.T) {
	law := testLaw(t)
	const (
		mu      = 60.0
		seed    = 42
		horizon = 4000.0
		warmup  = 400.0
	)
	mkSource := func(delay float64) des.SourceConfig {
		return des.SourceConfig{Law: law, Delay: delay, Interval: 0.05, Lambda0: 15, MinRate: 0.5}
	}
	engine, err := des.New(des.Config{
		Mu: mu, Seed: seed,
		Sources: []des.SourceConfig{mkSource(0.1), mkSource(0.5)},
	})
	if err != nil {
		t.Fatal(err)
	}
	engRes, err := engine.Run(horizon, warmup)
	if err != nil {
		t.Fatal(err)
	}

	mkFlow := func(delay float64) Flow {
		return Flow{Law: law, Route: []int{0}, FeedbackDelay: delay, Interval: 0.05, Lambda0: 15, MinRate: 0.5}
	}
	sim, err := New(Config{
		Nodes: []Node{{Mu: mu}},
		Seed:  seed,
		Flows: []Flow{mkFlow(0.1), mkFlow(0.5)},
	})
	if err != nil {
		t.Fatal(err)
	}
	netRes, err := sim.Run(horizon, warmup)
	if err != nil {
		t.Fatal(err)
	}

	if d := relDiff(engRes.QueueStats.Mean(), netRes.NodeQueue[0].Mean()); d > 0.01 {
		t.Errorf("mean queue: engine %.4f vs netsim %.4f (diff %.2f%%)",
			engRes.QueueStats.Mean(), netRes.NodeQueue[0].Mean(), 100*d)
	}
	var engTp, netTp float64
	for i := range engRes.Throughput {
		engTp += engRes.Throughput[i]
		netTp += netRes.Throughput[i]
	}
	if d := relDiff(engTp, netTp); d > 0.01 {
		t.Errorf("total throughput: engine %.4f vs netsim %.4f (diff %.2f%%)", engTp, netTp, 100*d)
	}
}

// TestTwoHopMatchesTandem holds a linear two-hop topology to
// des.TandemSim: same hops, flows and seed, per-flow throughput and
// per-hop mean backlog must agree within a few percent (the two
// simulators consume their rng streams differently — TandemSim shares
// one service stream across hops — so agreement is statistical, not
// bitwise).
func TestTwoHopMatchesTandem(t *testing.T) {
	if testing.Short() {
		t.Skip("long DES comparison")
	}
	law := testLaw(t)
	const (
		prop    = 0.02
		seed    = 7
		horizon = 6000.0
		warmup  = 600.0
	)
	tandem, err := des.NewTandem(des.TandemConfig{
		Mus:       []float64{80, 50},
		PropDelay: prop,
		Seed:      seed,
		Sources: []des.TandemSource{
			{Law: law, Path: []int{0, 1}, Lambda0: 10, MinRate: 0.5},
			{Law: law, Path: []int{1}, Lambda0: 10, MinRate: 0.5},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tanRes, err := tandem.Run(horizon, warmup)
	if err != nil {
		t.Fatal(err)
	}

	// The netsim equivalent: TandemSim charges one PropDelay from the
	// sender to the first hop, one per inter-hop link, and defines
	// RTT = 2·PropDelay·len(path), observing the path backlog one RTT
	// late with once-per-RTT control.
	sim, err := New(Config{
		Nodes: []Node{{Mu: 80}, {Mu: 50}},
		Links: []Link{{From: 0, To: 1, Delay: prop}},
		Seed:  seed,
		Flows: []Flow{
			{
				Law: law, Route: []int{0, 1},
				IngressDelay: prop, ReturnDelay: 2 * prop,
				FeedbackDelay: 4 * prop, // = RTT
				Lambda0:       10, MinRate: 0.5,
			},
			{
				Law: law, Route: []int{1},
				IngressDelay: prop, ReturnDelay: prop,
				FeedbackDelay: 2 * prop, // = RTT
				Lambda0:       10, MinRate: 0.5,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{4 * prop, 2 * prop} {
		if got := sim.flows[i].rtt; math.Abs(got-want) > 1e-12 {
			t.Fatalf("flow %d RTT = %v, want %v", i, got, want)
		}
	}
	netRes, err := sim.Run(horizon, warmup)
	if err != nil {
		t.Fatal(err)
	}

	for i := range tanRes.Throughput {
		if d := relDiff(tanRes.Throughput[i], netRes.Throughput[i]); d > 0.05 {
			t.Errorf("flow %d throughput: tandem %.4f vs netsim %.4f (diff %.2f%%)",
				i, tanRes.Throughput[i], netRes.Throughput[i], 100*d)
		}
	}
	for h := range tanRes.MeanBacklog {
		if d := relDiff(tanRes.MeanBacklog[h], netRes.NodeQueue[h].Mean()); d > 0.10 {
			t.Errorf("hop %d mean backlog: tandem %.4f vs netsim %.4f (diff %.2f%%)",
				h, tanRes.MeanBacklog[h], netRes.NodeQueue[h].Mean(), 100*d)
		}
	}
}

// TestDeterminism: identical configs and seeds give identical results.
func TestDeterminism(t *testing.T) {
	law := testLaw(t)
	run := func() *Result {
		cfg, err := ParkingLot(ParkingLotConfig{
			Hops: 3, Mu: 40, Delay: 0.02, Law: law,
			Lambda0: 5, MinRate: 0.5, Buffer: 50, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(300, 30)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for i := range a.Throughput {
		if a.Throughput[i] != b.Throughput[i] {
			t.Errorf("flow %d throughput differs across identical runs: %v vs %v",
				i, a.Throughput[i], b.Throughput[i])
		}
		if a.Delivered[i] != b.Delivered[i] || a.Dropped[i] != b.Dropped[i] {
			t.Errorf("flow %d counters differ across identical runs", i)
		}
	}
	for h := range a.NodeQueue {
		if a.NodeQueue[h].Mean() != b.NodeQueue[h].Mean() {
			t.Errorf("node %d mean queue differs across identical runs", h)
		}
	}
}

// TestGatewayNodes runs a mixed-discipline topology: a RED-marking
// bottleneck behind a drop-tail transit hop. The RED gateway must
// keep the bottleneck queue near the law's target, well below the
// hard buffer.
func TestGatewayNodes(t *testing.T) {
	law := testLaw(t)
	red, err := des.NewREDGateway(4, 24, 0.3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(Config{
		Nodes: []Node{
			{Name: "transit", Mu: 200, Buffer: 100},
			{Name: "red", Mu: 50, Buffer: 100, Gateway: red},
		},
		Links: []Link{{From: 0, To: 1, Delay: 0.01}},
		Seed:  3,
		Flows: []Flow{
			{Law: law, Route: []int{0, 1}, IngressDelay: 0.01, ReturnDelay: 0.02,
				FeedbackDelay: 0.04, Lambda0: 10, MinRate: 0.5},
			{Law: law, Route: []int{1}, IngressDelay: 0.01, ReturnDelay: 0.01,
				FeedbackDelay: 0.02, Lambda0: 10, MinRate: 0.5},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(800, 100)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, tp := range res.Throughput {
		if tp <= 0 {
			t.Fatalf("flow starved: throughputs %v", res.Throughput)
		}
		total += tp
	}
	if total > 50 {
		t.Errorf("total throughput %.2f exceeds bottleneck capacity 50", total)
	}
	if util := total / 50; util < 0.6 {
		t.Errorf("bottleneck utilization %.2f too low for a working control loop", util)
	}
	mean := res.NodeQueue[1].Mean()
	if mean <= 0 || mean > 40 {
		t.Errorf("RED bottleneck mean queue %.2f outside the early-marking regime (0, 40]", mean)
	}
}

// TestFiniteBufferDrops: an uncontrolled overload against a tiny
// buffer must record drops at the node and per flow, and deliver at
// most the service capacity.
func TestFiniteBufferDrops(t *testing.T) {
	sim, err := New(Config{
		Nodes: []Node{{Mu: 20, Buffer: 5}},
		Seed:  5,
		Flows: []Flow{{
			Law: ConstantRate(), Route: []int{0}, Interval: 1,
			Lambda0: 60, MinRate: 60,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(200, 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped[0] == 0 || res.NodeDropped[0] != res.Dropped[0] {
		t.Errorf("expected drop-tail losses: flow %d, node %d", res.Dropped[0], res.NodeDropped[0])
	}
	if res.Throughput[0] > 20*1.05 {
		t.Errorf("throughput %.2f exceeds service rate 20", res.Throughput[0])
	}
	if mean := res.NodeQueue[0].Mean(); mean > 5 {
		t.Errorf("mean queue %v exceeded the buffer bound 5", mean)
	}
}

func TestFlowRTT(t *testing.T) {
	law := testLaw(t)
	cfg := Config{
		Nodes: []Node{{Mu: 10}, {Mu: 10}, {Mu: 10}},
		Links: []Link{{From: 0, To: 1, Delay: 0.1}, {From: 1, To: 2, Delay: 0.2}},
		Flows: []Flow{{
			Law: law, Route: []int{0, 1, 2},
			IngressDelay: 0.05, ReturnDelay: 0.15,
		}},
	}
	rtt, err := cfg.FlowRTT(0)
	if err != nil {
		t.Fatal(err)
	}
	if want := 0.05 + 0.1 + 0.2 + 0.15; math.Abs(rtt-want) > 1e-12 {
		t.Errorf("FlowRTT = %v, want %v", rtt, want)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}
