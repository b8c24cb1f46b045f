// Package netmf is the networked mean-field engine: the large-N
// kinetic limit of internal/meanfield generalized from one shared
// bottleneck to an arbitrary topology of fluid link queues — the join
// of the repository's two scaling axes (millions of sources, and
// multi-bottleneck scenarios).
//
// The finite-N system is the one internal/netsim simulates packet by
// packet: N_k sources of class k follow a fixed multi-hop route
// through a graph of queues, adjusting their rates from the summed,
// delayed congestion of the route. As N_k → ∞ with per-node capacity
// scaled along, the per-class rate densities f_k(λ, t) close exactly
// (every source of a class sees the same delayed path backlog):
//
//	∂f_k/∂t + ∂(g_k(B_k(t−τ_k), λ) f_k)/∂λ = (σ_k²/2) ∂²f_k/∂λ²
//
// where B_k(t) = Σ_{j ∈ route_k} Q_j(t) is the path backlog, coupled
// to one fluid queue ODE per node:
//
//	dQ_j/dt = Σ_{k : j ∈ route_k} w_k N_k ⟨λ⟩_k − μ_j     (Q_j ≥ 0).
//
// Sources are rate-limited (a class offers its source rate to every
// hop of its route; queues grow wherever capacity falls short), the
// standard kinetic-limit closure for feedback-controlled flows — the
// netsim cross-check test quantifies how close the packet system runs
// to it at small N.
//
// Each class's delayed congestion signal is accumulated along its
// route from the interpolated per-link queue histories at t−τ_k, with
// per-class RTTs τ_k — the density analogue of netsim's observePath.
// Stepping costs O(links + classes × bins) independent of every N_k,
// so parking-lot fairness and bottleneck-migration studies run at
// N = 10⁶ per class in the time netsim spends on tens of flows
// (experiments E30, E31).
//
// The package is the topology front end of meanfield's one kinetic
// Engine (meanfield.Density is the same engine's one-node instance).
// It steps nothing itself: it validates the topology and every
// class's route, turns the topology into a meanfield.Network, and
// builds the Engine on it. Class is meanfield.Class, and
// meanfield.NodeSteadyStats measures the per-node steady state. The
// topology vocabulary (netsim.Topology) is shared with the packet
// simulator, so the same graph can be handed to either engine;
// cmd/meanfield runs the canned scenarios (-topology parking-lot,
// cross-chain).
package netmf

import (
	"fmt"

	"fpcc/internal/meanfield"
	"fpcc/internal/netsim"
	"fpcc/internal/obs"
)

// Class is the kinetic engine's class type. On a network its Route
// is required: the ordered node indices its sources traverse, every
// consecutive pair joined by a link of the topology. Its law observes
// the delayed path backlog (the sum of the route's queues), so the
// law's threshold q̂ is a total-path-queue target — the feedback a
// netsim flow's controller sees.
type Class = meanfield.Class

// Config describes a networked mean-field problem: the node/link
// graph, the class mix routed over it, the rate domain, and the time
// step.
//
// Only Node.Mu is meaningful to the fluid engine: queues are
// unbounded (Node.Buffer is ignored) and feedback is transparent
// (Node.Gateway is ignored) — the kinetic limit of drop-tail losses
// and gateway marking is future work. This keeps the graph type
// shared with netsim, so canned topologies can be handed to either
// engine.
type Config struct {
	Topology netsim.Topology
	Classes  []Class
	// LMax bounds the per-source rate domain λ ∈ [0, LMax].
	LMax float64
	// Bins is the rate-grid resolution per class.
	Bins int
	// Dt is the explicit Euler step; the transport sweeps additionally
	// enforce the CFL bound max|g|·Dt/Δλ ≤ 1 at every step.
	Dt float64
	// Q0, when non-nil, holds one initial queue length per node (nil
	// means every queue starts empty).
	Q0 []float64
	// SecondOrder selects MUSCL/minmod (TVD) transport sweeps instead
	// of first-order upwind (same trade as meanfield.Config).
	SecondOrder bool

	// Workers bounds the per-step parallelism over classes
	// (0 = GOMAXPROCS when the engine is built). It affects
	// wall-clock time only, never results: each class's kernel is
	// independent within a step and the arrival-rate coupling stays
	// in class order.
	Workers int

	// Obs, when non-nil, receives per-step probes (total and per-node
	// queues, per-class offered rates and moments, all under the
	// "netmf" scope) and, when it enables invariants, runs the
	// per-step checks: per-class mass budget ∫f_k = 1 + clipped_k,
	// density non-negativity, CFL margin, per-node queue finiteness,
	// and queue-history monotonicity. A failing check aborts Step with
	// a step-stamped error. The nil default costs one branch per step
	// and never changes any observable.
	Obs *obs.Recorder
}

// Validate checks the configuration: the topology, every route
// against its links, and — through meanfield.Config.ValidateOn — the
// class mix, rate grid, step and initial queues.
func (c *Config) Validate() error {
	kc, net, err := c.kinetic()
	if err != nil {
		return err
	}
	return kc.ValidateOn(net)
}

// kinetic checks the topology and every route against it, and
// translates the configuration into the kinetic engine's inputs: the
// class mix, and the queue network carrying each node's μ and initial
// queue.
func (c *Config) kinetic() (meanfield.Config, meanfield.Network, error) {
	if err := c.Topology.Validate(); err != nil {
		return meanfield.Config{}, meanfield.Network{}, fmt.Errorf("netmf: topology: %w", err)
	}
	for k, cl := range c.Classes {
		if err := c.Topology.ValidateRoute(cl.Route); err != nil {
			return meanfield.Config{}, meanfield.Network{}, fmt.Errorf("netmf: class %d: %w", k, err)
		}
	}
	net := meanfield.Network{
		Scope: "netmf",
		Nodes: make([]string, len(c.Topology.Nodes)),
		Mu:    make([]float64, len(c.Topology.Nodes)),
		Q0:    c.Q0,
	}
	for j, node := range c.Topology.Nodes {
		net.Nodes[j], net.Mu[j] = c.Topology.NodeName(j), node.Mu
	}
	kc := meanfield.Config{
		Classes: c.Classes, LMax: c.LMax, Bins: c.Bins, Dt: c.Dt,
		SecondOrder: c.SecondOrder, Workers: c.Workers, Obs: c.Obs,
	}
	return kc, net, nil
}

// Engine is the networked kinetic solver: meanfield's one kinetic
// engine, run on the topology's queues with per-class routes.
type Engine = meanfield.Engine

// New builds the networked engine with every class initialized to its
// (grid-discretized, renormalized) Gaussian blob and every queue to
// its Q0 entry (0 without Q0).
func New(cfg Config) (*Engine, error) {
	kc, net, err := cfg.kinetic()
	if err != nil {
		return nil, err
	}
	return meanfield.NewEngine(kc, net)
}

// TotalSources returns Σ_k N_k.
func (c *Config) TotalSources() int {
	n := 0
	for _, cl := range c.Classes {
		n += cl.N
	}
	return n
}

// ClassName returns the display name of class k.
func (c *Config) ClassName(k int) string {
	if c.Classes[k].Name != "" {
		return c.Classes[k].Name
	}
	return fmt.Sprintf("class%d", k)
}
