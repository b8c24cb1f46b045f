// Package netsim is a packet-level discrete-event simulator for
// arbitrary network topologies: a directed graph of store-and-forward
// Nodes (FIFO queues with configurable service rate, buffer limit and
// gateway discipline) connected by Links with propagation delay,
// carrying Flows that follow explicit multi-hop routes and adjust
// their sending rate through the internal/control feedback laws.
//
// It generalizes the two hardwired simulators in internal/des — the
// single-bottleneck Engine of the paper's model and the linear
// TandemSim — to the scenario class the congestion-avoidance
// literature evaluates on: multi-bottleneck paths, parking-lot
// topologies, cross-traffic, and mixed gateway disciplines (drop-tail
// via finite buffers, DECbit-style averaged feedback, RED marking)
// on the same network. The proven idioms carry over unchanged: a
// binary-heap event loop ordered by (t, seq) for determinism, exact
// per-node queue-length histories for delayed feedback, and
// deterministic rng sub-streams split per node and per flow so a run
// is reproducible from a single integer seed.
//
// The degenerate cases reduce to the des simulators (and the tests
// hold netsim to them): a single-node topology reproduces des.Engine,
// a linear chain reproduces des.TandemSim.
//
// On top of the simulator, Sweep (sweep.go) shards an N-dimensional
// parameter grid across parallel workers with deterministic per-cell
// seeds and aggregates per-flow throughput, fairness and queue
// statistics into CSV or JSON.
package netsim

import (
	"fmt"
	"math"

	"fpcc/internal/churn"
	"fpcc/internal/control"
	"fpcc/internal/des"
	"fpcc/internal/traffic"
)

// Node is one store-and-forward queue in the topology.
type Node struct {
	// Name labels the node in reports (defaults to its index).
	Name string
	// Mu is the service rate in packets/s (> 0, exponential server).
	Mu float64
	// Buffer, when positive, bounds the queue (including the packet
	// in service): arrivals beyond it are dropped, drop-tail style.
	// 0 means an infinite queue.
	Buffer int
	// Gateway, when non-nil, owns this node's congestion signal: the
	// recorded feedback history holds Gateway.Signal (e.g. a DECbit
	// EWMA of the queue) and flow observations pass the delayed
	// signal through Gateway.Observe (e.g. RED marking) before the
	// law sees it. Nil means transparent feedback — the raw queue
	// length. Gateways are stateful and must not be shared between
	// nodes or between concurrently running simulators.
	Gateway des.Gateway
}

// Link is a directed edge with propagation delay.
type Link struct {
	From, To int     // node indices
	Delay    float64 // one-way propagation delay in seconds (>= 0)
}

// Flow is one rate-controlled sender following a fixed multi-hop
// route through the topology.
type Flow struct {
	// Name labels the flow in reports (defaults to its index).
	Name string
	// Law is the rate-control law driven by the delayed path
	// feedback (the sum of observed congestion over the route's
	// nodes; see Sim documentation).
	Law control.Law
	// Route is the ordered list of node indices the flow traverses.
	// Every consecutive pair must be connected by a Link.
	Route []int
	// IngressDelay is the propagation delay from the sender to the
	// first node of the route.
	IngressDelay float64
	// ReturnDelay is the propagation delay from the last node back
	// to the sender (the ack path). It contributes to RTT only.
	ReturnDelay float64
	// FeedbackDelay is the age of the path observation at the
	// controller. 0 means instantaneous observation; set it to the
	// flow's RTT for the once-around-the-loop feedback of
	// des.TandemSim.
	FeedbackDelay float64
	// Interval is the control-update period. 0 means once per RTT
	// (which must then be positive).
	Interval float64
	// Lambda0 is the initial sending rate (packets/s).
	Lambda0 float64
	// MinRate is the rate floor (> 0 keeps a silenced flow probing).
	MinRate float64
	// Burst, when non-nil, modulates the flow's instantaneous
	// emission rate by a piecewise-constant envelope factor
	// (λ_eff = λ·factor) without touching the control law's λ — the
	// same per-source modulation as des.SourceConfig.Burst, and the
	// packet twin of the mean-field pulse envelope. Modulators are
	// stateless here (per-flow state lives in the simulator), but a
	// stochastic modulator draws from the flow's own rng stream, so
	// instances must not be shared between concurrently running
	// simulators.
	Burst traffic.Modulator
}

// ChurnClass opens the simulation: a population of identical sessions
// that arrive as a Poisson process, live for a sampled lifetime, and
// disappear — the finite-N counterpart of the mean-field birth–death
// source terms (meanfield.Class.Churn). Every session instantiates
// Template with its own rng sub-stream; a dying session stops
// emitting and controlling but its in-flight packets drain normally.
type ChurnClass struct {
	// Name labels the class in reports (defaults to its index).
	Name string
	// Template is the flow every session of the class runs.
	Template Flow
	// Arrival is the Poisson session arrival rate in flows/s (0 means
	// no births — the initial N0 population only drains).
	Arrival float64
	// Lifetime samples session durations (one draw per session, from
	// the session's own rng stream).
	Lifetime churn.Lifetime
	// N0 is the number of sessions alive at t = 0; each samples a
	// full lifetime then (a "fresh" initial population, matching the
	// mean-field kernels' t = 0 phase composition).
	N0 int
}

// Config describes a netsim run.
type Config struct {
	Nodes []Node
	Links []Link
	Flows []Flow
	// Churn, when non-empty, adds open-system session classes on top
	// of the static Flows (which may then be empty): sessions are
	// born, live and die during the run, and are reported as
	// per-class aggregates (Result.Churn*) rather than per-flow
	// arrays.
	Churn []ChurnClass
	Seed  uint64
	// SampleEvery records every node's queue length each SampleEvery
	// seconds into Result.TraceQ (0 disables tracing).
	SampleEvery float64
}

// Topo returns the node/link graph of the configuration as a
// Topology, the validation and path-delay vocabulary shared with the
// networked mean-field engine.
func (c *Config) Topo() Topology {
	return Topology{Nodes: c.Nodes, Links: c.Links}
}

// linkTable builds the directed-edge -> delay lookup, rejecting
// duplicate edges.
func (c *Config) linkTable() (map[linkKey]float64, error) {
	tp := c.Topo()
	return tp.linkTable()
}

// FlowRTT returns the base (propagation-only) round-trip time of flow
// i: ingress + route links + return.
func (c *Config) FlowRTT(i int) (float64, error) {
	if i < 0 || i >= len(c.Flows) {
		return 0, fmt.Errorf("netsim: flow index %d out of range", i)
	}
	f := &c.Flows[i]
	tp := c.Topo()
	path, err := tp.PathDelay(f.Route)
	if err != nil {
		return 0, fmt.Errorf("netsim: flow %d: %w", i, err)
	}
	return f.IngressDelay + path + f.ReturnDelay, nil
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	tp := c.Topo()
	if err := tp.Validate(); err != nil {
		return fmt.Errorf("netsim: %w", err)
	}
	// Build the link table once for every per-flow route check below
	// (Topology.Validate proved it constructible).
	tab, err := tp.linkTable()
	if err != nil {
		return fmt.Errorf("netsim: %w", err)
	}
	if len(c.Flows) == 0 && len(c.Churn) == 0 {
		return fmt.Errorf("netsim: no flows")
	}
	validateFlow := func(who string, f *Flow) error {
		switch {
		case f.Law == nil:
			return fmt.Errorf("netsim: %s has nil law", who)
		case len(f.Route) == 0:
			return fmt.Errorf("netsim: %s has empty route", who)
		case !(f.IngressDelay >= 0) || math.IsInf(f.IngressDelay, 1):
			return fmt.Errorf("netsim: %s has invalid ingress delay %v", who, f.IngressDelay)
		case !(f.ReturnDelay >= 0) || math.IsInf(f.ReturnDelay, 1):
			return fmt.Errorf("netsim: %s has invalid return delay %v", who, f.ReturnDelay)
		case !(f.FeedbackDelay >= 0) || math.IsInf(f.FeedbackDelay, 1):
			return fmt.Errorf("netsim: %s has invalid feedback delay %v", who, f.FeedbackDelay)
		case !(f.Interval >= 0) || math.IsInf(f.Interval, 1):
			return fmt.Errorf("netsim: %s has invalid control interval %v", who, f.Interval)
		case !(f.Lambda0 >= 0) || math.IsInf(f.Lambda0, 1):
			return fmt.Errorf("netsim: %s has invalid initial rate %v", who, f.Lambda0)
		case !(f.MinRate >= 0) || math.IsInf(f.MinRate, 1):
			return fmt.Errorf("netsim: %s has invalid rate floor %v", who, f.MinRate)
		}
		path, err := tp.routeDelayIn(tab, f.Route)
		if err != nil {
			return fmt.Errorf("netsim: %s: %w", who, err)
		}
		rtt := f.IngressDelay + path + f.ReturnDelay
		if math.IsInf(rtt, 1) {
			return fmt.Errorf("netsim: %s round-trip delay overflows to %v", who, rtt)
		}
		if f.Interval == 0 && !(rtt > 0) {
			return fmt.Errorf("netsim: %s has zero control interval and zero RTT; set Interval", who)
		}
		return nil
	}
	for i := range c.Flows {
		if err := validateFlow(fmt.Sprintf("flow %d", i), &c.Flows[i]); err != nil {
			return err
		}
	}
	for j := range c.Churn {
		cc := &c.Churn[j]
		switch {
		case !(cc.Arrival >= 0) || math.IsInf(cc.Arrival, 1):
			return fmt.Errorf("netsim: churn class %d has invalid arrival rate %v", j, cc.Arrival)
		case cc.Lifetime == nil:
			return fmt.Errorf("netsim: churn class %d has nil lifetime", j)
		case !(cc.Lifetime.Mean() > 0) || math.IsInf(cc.Lifetime.Mean(), 1):
			return fmt.Errorf("netsim: churn class %d has invalid lifetime mean %v", j, cc.Lifetime.Mean())
		case cc.N0 < 0:
			return fmt.Errorf("netsim: churn class %d has negative initial population %d", j, cc.N0)
		case cc.N0 == 0 && cc.Arrival == 0:
			return fmt.Errorf("netsim: churn class %d is forever empty (N0 = 0, Arrival = 0)", j)
		}
		if err := validateFlow(fmt.Sprintf("churn class %d template", j), &cc.Template); err != nil {
			return err
		}
	}
	if !(c.SampleEvery >= 0) || math.IsInf(c.SampleEvery, 1) {
		return fmt.Errorf("netsim: invalid sample period %v", c.SampleEvery)
	}
	return nil
}

// ChurnName returns the display name of churn class j.
func (c *Config) ChurnName(j int) string {
	if j >= 0 && j < len(c.Churn) && c.Churn[j].Name != "" {
		return c.Churn[j].Name
	}
	return fmt.Sprintf("C%d", j)
}

// NodeName returns the display name of node h.
func (c *Config) NodeName(h int) string {
	tp := c.Topo()
	return tp.NodeName(h)
}

// FlowName returns the display name of flow i.
func (c *Config) FlowName(i int) string {
	if i >= 0 && i < len(c.Flows) && c.Flows[i].Name != "" {
		return c.Flows[i].Name
	}
	return fmt.Sprintf("F%d", i)
}

// ConstantRate returns a law whose drift is identically zero: a flow
// using it sends at Lambda0 forever, ignoring feedback. It models
// uncontrolled cross-traffic (the background load that migrates a
// bottleneck or beats down adaptive flows).
func ConstantRate() control.Law {
	return control.Custom{
		DriftFunc: func(q, lambda float64) float64 { return 0 },
		LawName:   "constant",
	}
}
