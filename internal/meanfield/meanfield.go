// Package meanfield is the population-density engine for the paper's
// large-N limit: millions of heterogeneous sources adjusting their
// sending rates from shared queue feedback, evolved as per-class
// densities instead of individuals.
//
// The finite-N system is the one internal/des and internal/fluid
// simulate source by source: N_k sources of class k, each with rate
// λ_i(t) obeying dλ = g_k(Q(t−τ_k), λ) dt (+ σ_k dW_i for intrinsic
// rate variability), feeding a shared bottleneck queue
//
//	dQ/dt = Σ_k w_k Σ_{i∈k} λ_i(t) − μ       (Q reflected at 0).
//
// Because every source of a class sees the same (delayed) queue, the
// kinetic limit N → ∞ closes exactly: the per-class density f_k(λ, t)
// of source rates obeys the one-dimensional transport-diffusion
// equation
//
//	∂f_k/∂t + ∂(g_k(Q(t−τ_k), λ) f_k)/∂λ = (σ_k²/2) ∂²f_k/∂λ²
//
// coupled to the queue ODE through the aggregate arrival rate
// Σ_k w_k N_k ∫ λ f_k dλ. Stepping the densities costs
// O(classes × bins), independent of N — a million-source population
// advances in the time a particle model spends on a few hundred — so
// heavy-traffic scenarios become directly computable rather than
// extrapolated.
//
// The package holds the repository's one kinetic engine and a
// finite-N backend:
//
//   - Engine: conservative upwind (or MUSCL/minmod,
//     Config.SecondOrder) transport in λ per class, in the style of
//     internal/fokkerplanck's advection sweeps, plus a Crank-Nicolson
//     diffusion solve when σ_k > 0, coupled to one fluid queue per
//     node of a Network along each class's Route. Density is its
//     one-node constructor — the shared bottleneck above, every Route
//     nil — and internal/netmf runs the same engine on a topology,
//     with the same Class type. SteadyStats and NodeSteadyStats share
//     one window loop.
//   - Particles: a finite-N structure-of-arrays Monte-Carlo backend
//     (flat []float64 rate arrays in fixed-size chunks, stepped on a
//     bounded worker pool with rng.Mix-derived per-chunk streams), the
//     stochastic ground truth the density limit is validated against.
//     It takes the same Config as Density.
//
// Experiment E28 shows particle-mode observables converging to the
// density solution as N grows; E29 runs heterogeneous two-class
// (slow-RTT vs fast-RTT) populations at N = 10⁶ on internal/sweep
// grids.
package meanfield

import (
	"fmt"
	"math"

	"fpcc/internal/churn"
	"fpcc/internal/control"
	"fpcc/internal/obs"
)

// Class describes one homogeneous sub-population of sources.
type Class struct {
	// Name labels the class in reports (defaults to "class<k>").
	Name string
	// Law is the class's rate-control law g(Q, λ). The law observes
	// the TOTAL queue length (like every other engine in this
	// repository), so its threshold q̂ is a total-queue target.
	Law control.Law
	// N is the population size. The density engine's per-step cost is
	// independent of N; the particle engine allocates N slots.
	N int
	// Weight scales this class's per-source contribution to the
	// aggregate arrival rate (0 means 1). A weight of 2 models sources
	// whose packets are twice the base size.
	Weight float64
	// Delay is the class's feedback delay τ (its RTT): controllers
	// observe Q(t−τ), or on a network the delayed path backlog
	// B(t−τ), the sum of the route's queues.
	Delay float64
	// Route is the ordered list of node indices the class's sources
	// traverse on an Engine's network; the class offers its rate to
	// every hop and observes their summed backlog. Nil means node 0,
	// the only node of a Density (the particle backend has no other).
	Route []int
	// Lambda0 and InitStd define the initial rate distribution: a
	// Gaussian blob clipped to [0, LMax] (InitStd = 0 is a point
	// mass).
	Lambda0 float64
	InitStd float64
	// SigmaL is the intrinsic rate variability σ_k: per-source
	// Brownian rate noise in the particle backend, the matching
	// (σ_k²/2)·f_λλ diffusion in the density backend.
	SigmaL float64
	// Churn, when non-nil, opens the class: sessions are born at
	// Churn.Arrival flows/s (Poisson in the finite-N picture, a
	// deterministic mass source in the kinetic limit) and die after
	// Churn.Lifetime. N is then the population at t = 0 and the live
	// population is N·(1 + born − died). Density backend only; the
	// particle backend rejects open classes.
	Churn *churn.Flow
	// Pulse, when non-nil, scales the class's offered-rate
	// contribution by the deterministic duty-cycle envelope — the
	// synchronized on/off blaster of the adversarial experiments. It
	// multiplies only the queue coupling (the per-source densities
	// are unchanged). Density backend only.
	Pulse *churn.Pulse
}

// Config describes a mean-field problem: the class mix, the shared
// bottleneck, the rate domain, and the time step. Both backends
// (Density, Particles) take the same Config, so a scenario can be run
// at any fidelity without restating it. An Engine on a multi-node
// Network reads everything but Mu and Q0, which the network replaces.
type Config struct {
	Classes []Class
	// Mu is the total bottleneck service rate shared by all classes.
	Mu float64
	// LMax bounds the per-source rate domain λ ∈ [0, LMax]. The
	// density lives on this interval (zero-flux ends); particles are
	// reflected into it.
	LMax float64
	// Bins is the density engine's λ-grid resolution per class.
	Bins int
	// Dt is the explicit Euler step shared by both backends. The
	// density engine additionally enforces the CFL bound
	// max|g|·Dt/Δλ ≤ 1 at every step.
	Dt float64
	// Q0 is the initial queue length.
	Q0 float64
	// SecondOrder selects MUSCL/minmod (TVD) transport sweeps instead
	// of first-order upwind in the density engine, removing most of
	// the numerical diffusion (same trade as fokkerplanck.Config).
	SecondOrder bool

	// Workers bounds the density engine's per-step parallelism over
	// classes (0 = GOMAXPROCS when the engine is built). It affects
	// wall-clock time only, never results: each class's kernel is
	// independent within a step and the coupling reductions stay in
	// class order. (The particle backend takes its worker bound as a
	// NewParticles argument instead, alongside its seed.)
	Workers int

	// Obs, when non-nil, receives per-step probes (the engine's
	// queue, offered-rate and moment series under its network's scope;
	// the particle backend's mfp.* series) and, when it enables
	// invariants, runs the per-step checks: per-class mass budget
	// ∫f_k = 1 + clipped_k, density non-negativity, CFL margin, queue
	// finiteness, and queue-history monotonicity. A failing check
	// aborts Step with a step-stamped error. The nil default costs one
	// branch per step and never changes any observable.
	Obs *obs.Recorder
}

// Validate checks the single-bottleneck configuration both backends
// (Density, Particles) take.
func (c *Config) Validate() error { return c.ValidateOn(c.oneNode()) }

// ValidateOn checks the configuration of an Engine on net: the class
// mix and routes, the rate grid and the step, then the network's
// shape, service rates and initial queues. Mu and Q0 are not read;
// the network carries every node's service rate and initial queue.
func (c *Config) ValidateOn(net Network) error {
	dl := c.LMax / float64(c.Bins) // the rate cell width
	switch {
	case len(c.Classes) == 0:
		return fmt.Errorf("meanfield: no classes")
	case !(c.LMax > 0) || math.IsInf(c.LMax, 1):
		return fmt.Errorf("meanfield: LMax must be positive, got %v", c.LMax)
	case c.Bins < 8:
		return fmt.Errorf("meanfield: need at least 8 rate bins, got %d", c.Bins)
	case math.IsInf(1/dl, 1):
		return fmt.Errorf("meanfield: %d rate bins on [0, %v] are too narrow", c.Bins, c.LMax)
	case !(c.Dt > 0) || math.IsInf(c.Dt, 1):
		return fmt.Errorf("meanfield: step must be positive and finite, got %v", c.Dt)
	}
	for k, cl := range c.Classes {
		switch {
		case cl.Law == nil:
			return fmt.Errorf("meanfield: class %d has nil law", k)
		case cl.N < 1:
			return fmt.Errorf("meanfield: class %d has population %d, want >= 1", k, cl.N)
		case !finiteNonNeg(cl.Weight):
			return fmt.Errorf("meanfield: class %d has invalid weight %v", k, cl.Weight)
		case !finiteNonNeg(cl.Delay):
			return fmt.Errorf("meanfield: class %d has invalid delay %v", k, cl.Delay)
		case !(cl.Lambda0 >= 0) || cl.Lambda0 > c.LMax:
			return fmt.Errorf("meanfield: class %d initial rate %v outside [0, %v]", k, cl.Lambda0, c.LMax)
		case !finiteNonNeg(cl.InitStd):
			return fmt.Errorf("meanfield: class %d has invalid initial spread %v", k, cl.InitStd)
		case !finiteNonNeg(cl.SigmaL):
			return fmt.Errorf("meanfield: class %d has invalid sigma %v", k, cl.SigmaL)
		case cl.SigmaL > 0 && !(cl.SigmaL*cl.SigmaL*c.Dt/(4*dl*dl) <= maxDiffusionNumber):
			return fmt.Errorf("meanfield: class %d sigma %v spreads over more than 2000 rate cells per step; reduce Dt", k, cl.SigmaL)
		case cl.Route != nil && len(cl.Route) == 0:
			return fmt.Errorf("meanfield: class %d has an empty route", k)
		}
		for _, j := range cl.Route {
			if j < 0 || j >= len(net.Nodes) {
				return fmt.Errorf("meanfield: class %d route node %d out of range", k, j)
			}
		}
		if cl.Churn != nil {
			if err := cl.Churn.Validate(c.LMax); err != nil {
				return fmt.Errorf("meanfield: class %d: %w", k, err)
			}
		}
	}
	return net.validate()
}

// maxDiffusionNumber bounds each diffusing class's Crank-Nicolson
// diffusion number r = σ²·Dt/(4Δλ²), which must also be a number (σ²
// and Δλ² both overflowing make it NaN). Beyond it one step's
// diffusion length 2Δλ·√r spans over 2000 cells, and the float64
// solve no longer holds the density's mass (its relative error grows
// like r·1e-17).
const maxDiffusionNumber = 1e6

// finiteNonNeg reports whether x is a finite number >= 0. It rejects
// NaN along with negatives and +Inf: a NaN parameter would pass a
// plain x < 0 check, and either one silently poisons the queue ODE.
func finiteNonNeg(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// open reports whether any class carries churn or pulse dynamics (the
// configurations the particle backend rejects).
func (c *Config) open() bool {
	for k := range c.Classes {
		if c.Classes[k].Churn != nil || c.Classes[k].Pulse != nil {
			return true
		}
	}
	return false
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

// weight resolves the per-source weight of class k (0 means 1).
func (c *Config) weight(k int) float64 {
	if w := c.Classes[k].Weight; w > 0 {
		return w
	}
	return 1
}

// maxDelay returns the longest class feedback delay.
func (c *Config) maxDelay() float64 {
	var d float64
	for _, cl := range c.Classes {
		if cl.Delay > d {
			d = cl.Delay
		}
	}
	return d
}
