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
// The package does not step anything itself: it validates the
// topology and routes, translates a scenario into a meanfield.Network,
// and runs meanfield's one kinetic Engine on it (meanfield.Density is
// the same engine's one-node instance). The topology vocabulary
// (netsim.Topology) is shared with the packet simulator, so the same
// graph can be handed to either engine.
package netmf

import (
	"fmt"

	"fpcc/internal/churn"
	"fpcc/internal/control"
	"fpcc/internal/meanfield"
	"fpcc/internal/netsim"
	"fpcc/internal/obs"
)

// Class describes one homogeneous sub-population of sources following
// a common route.
type Class struct {
	// Name labels the class in reports (defaults to "class<k>").
	Name string
	// Law is the class's rate-control law g(B, λ), driven by the
	// delayed path backlog B (the sum of the route's queue lengths),
	// so its threshold q̂ is a total-path-queue target — exactly the
	// feedback a netsim flow's controller sees.
	Law control.Law
	// N is the population size. The engine's per-step cost is
	// independent of N.
	N int
	// Weight scales this class's per-source contribution to every
	// arrival rate on its route (0 means 1).
	Weight float64
	// Delay is the class's feedback delay τ (its RTT): controllers
	// observe the path backlog as it stood at t−τ.
	Delay float64
	// Route is the ordered list of node indices the class's sources
	// traverse. Every consecutive pair must be connected by a link of
	// the topology.
	Route []int
	// Lambda0 and InitStd define the initial rate distribution: a
	// Gaussian blob clipped to [0, LMax] (InitStd = 0 is a point
	// mass).
	Lambda0 float64
	InitStd float64
	// SigmaL is the intrinsic rate variability σ_k, entering as the
	// (σ_k²/2)·f_λλ diffusion.
	SigmaL float64
	// Churn, when non-nil, opens the class: sessions are born at
	// Churn.Arrival flows/s and die after Churn.Lifetime, evolved as
	// birth–death source terms on the class's phase kernels (see
	// meanfield.Engine). N is then the population at t = 0 and
	// the live population is N·(1 + born − died).
	Churn *churn.Flow
	// Pulse, when non-nil, scales the class's offered rate on every
	// hop by the deterministic duty-cycle envelope — the synchronized
	// on/off blaster of the adversarial experiments.
	Pulse *churn.Pulse
}

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
// class mix without routes, and the queue network carrying each
// node's μ and initial queue and each class's route.
func (c *Config) kinetic() (meanfield.Config, meanfield.Network, error) {
	if err := c.Topology.Validate(); err != nil {
		return meanfield.Config{}, meanfield.Network{}, fmt.Errorf("netmf: topology: %w", err)
	}
	kc := meanfield.Config{
		Classes: make([]meanfield.Class, len(c.Classes)),
		LMax:    c.LMax, Bins: c.Bins, Dt: c.Dt,
		SecondOrder: c.SecondOrder, Workers: c.Workers, Obs: c.Obs,
	}
	net := meanfield.Network{
		Scope:  "netmf",
		Nodes:  make([]string, len(c.Topology.Nodes)),
		Mu:     make([]float64, len(c.Topology.Nodes)),
		Q0:     c.Q0,
		Routes: make([][]int, len(c.Classes)),
	}
	for j, node := range c.Topology.Nodes {
		net.Nodes[j], net.Mu[j] = c.Topology.NodeName(j), node.Mu
	}
	for k, cl := range c.Classes {
		if err := c.Topology.ValidateRoute(cl.Route); err != nil {
			return meanfield.Config{}, meanfield.Network{}, fmt.Errorf("netmf: class %d: %w", k, err)
		}
		kc.Classes[k] = meanfield.Class{
			Name: cl.Name, Law: cl.Law, N: cl.N, Weight: cl.Weight,
			Delay: cl.Delay, Lambda0: cl.Lambda0, InitStd: cl.InitStd,
			SigmaL: cl.SigmaL, Churn: cl.Churn, Pulse: cl.Pulse,
		}
		net.Routes[k] = cl.Route
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
