// Package fpcc is a library for analysing dynamic congestion-control
// protocols with the Fokker-Planck approximation of Mukherjee &
// Strikwerda (SIGCOMM '91 / UPenn TR MS-CIS-91-18), "Analysis of
// Dynamic Congestion Control Protocols: A Fokker-Planck
// Approximation".
//
// The paper models a bottleneck queue with service rate μ whose
// sources adjust their sending rate λ(t) from (possibly delayed)
// queue-length feedback, dλ/dt = g(Q, λ), and derives the extended
// Fokker-Planck equation for the joint density f(t, q, v) of queue
// length and queue growth rate v = λ − μ:
//
//	f_t + v·f_q + (g·f)_v = (σ²/2)·f_qq        (Eq. 14)
//
// The package exposes six complementary views of the same system:
//
//   - FokkerPlanck: a finite-difference solver for Eq. 14 (the paper's
//     primary contribution) with moments, marginals and overflow
//     probabilities.
//   - Characteristics: the σ = 0 phase-plane analysis of Section 5 —
//     exact piecewise trajectories, Poincaré sections, and the
//     Theorem 1 convergence classification.
//   - Fluid: the deterministic Bolot-Shankar baseline with N sources
//     and per-source feedback delays (Sections 6-7).
//   - PacketSim: a packet-level discrete-event simulator of the real
//     stochastic system the analysis approximates.
//   - MeanField: the large-N kinetic limit — per-class rate densities
//     for millions of heterogeneous sources at O(classes × bins) cost
//     — plus a finite-N particle backend, the stochastic ground truth
//     the limit is validated against.
//   - NetMeanField: the same kinetic engine over an arbitrary topology
//     of fluid link queues — routed source classes observing summed,
//     delayed path backlogs, at O(links + classes × bins) cost (the
//     mean-field twin of NetSim's scenario class). MeanField is its
//     one-node instance.
//
// # Quick start
//
//	law := fpcc.AIMD{C0: 2, C1: 0.8, QHat: 20} // the JRJ algorithm
//	solver, err := fpcc.NewFokkerPlanck(fpcc.FokkerPlanckConfig{
//		Law: law, Mu: 10, Sigma: 1,
//		QMax: 60, NQ: 120, VMin: -12, VMax: 12, NV: 96,
//	})
//	if err != nil { ... }
//	_ = solver.SetGaussian(5, -2, 1.5, 1) // initial density blob
//	_ = solver.Advance(50, 0)             // integrate Eq. 14 to t=50
//	m := solver.Moments()                 // E[Q] ≈ q̂, E[v] ≈ 0
//
// See the examples directory for runnable programs and EXPERIMENTS.md
// for the reproduction of every table and figure in the paper.
package fpcc

import (
	"flag"
	"io"

	"fpcc/internal/characteristics"
	"fpcc/internal/churn"
	"fpcc/internal/control"
	"fpcc/internal/des"
	"fpcc/internal/fluid"
	"fpcc/internal/fokkerplanck"
	"fpcc/internal/markov"
	"fpcc/internal/meanfield"
	"fpcc/internal/netmf"
	"fpcc/internal/netsim"
	"fpcc/internal/obs"
	"fpcc/internal/obs/chrometrace"
	"fpcc/internal/obs/obscli"
	"fpcc/internal/sde"
	"fpcc/internal/stability"
	"fpcc/internal/stats"
	"fpcc/internal/sweep"
	"fpcc/internal/traffic"
)

// Law is a rate-control law g(q, λ): the drift of the sending rate
// given the observed queue length. The paper's Equation 4.
type Law = control.Law

// AIMD is the paper's linear-increase/exponential-decrease law
// (Equation 2), the rate analogue of the Jacobson / Ramakrishnan-Jain
// window algorithm: dλ/dt = +C0 when Q ≤ QHat, −C1·λ when Q > QHat.
type AIMD = control.AIMD

// AIAD is the linear-increase/linear-decrease variant, which
// oscillates even without feedback delay (Section 7).
type AIAD = control.AIAD

// MIMD is the multiplicative-increase/multiplicative-decrease variant.
type MIMD = control.MIMD

// CustomLaw wraps an arbitrary drift function as a Law.
type CustomLaw = control.Custom

// SmoothAIMD is AIMD with the hard threshold replaced by a logistic
// blend — the differentiable variant the linear stability analysis
// (Linearize, CriticalDelay) requires.
type SmoothAIMD = control.SmoothAIMD

// LinearLaw is the proportional-derivative rate law
// g = −Kq·(q−q̂) − Kl·(λ−MuRef), whose damping — and with it the
// delay budget τ* — is a free design parameter (experiment E23).
type LinearLaw = control.Linear

// Window is the original window-based algorithm (Equation 1) with its
// rate-law correspondence.
type Window = control.Window

// NewAIMD validates and returns the paper's AIMD law.
func NewAIMD(c0, c1, qHat float64) (AIMD, error) { return control.NewAIMD(c0, c1, qHat) }

// NewAIAD validates and returns an AIAD law.
func NewAIAD(c0, c1, qHat float64) (AIAD, error) { return control.NewAIAD(c0, c1, qHat) }

// NewMIMD validates and returns a MIMD law.
func NewMIMD(c0, c1, qHat float64) (MIMD, error) { return control.NewMIMD(c0, c1, qHat) }

// NewWindow validates and returns a window law.
func NewWindow(a, d, qHat float64) (Window, error) { return control.NewWindow(a, d, qHat) }

// NewSmoothAIMD validates and returns a smooth AIMD law of the given
// blend width.
func NewSmoothAIMD(c0, c1, qHat, width float64) (SmoothAIMD, error) {
	return control.NewSmoothAIMD(c0, c1, qHat, width)
}

// NewLinearLaw validates and returns a PD law.
func NewLinearLaw(kq, kl, qHat, muRef float64) (LinearLaw, error) {
	return control.NewLinear(kq, kl, qHat, muRef)
}

// FokkerPlanckConfig configures the Eq. 14 solver. Its Workers field
// bounds the solver's intra-step sweep parallelism (0 = GOMAXPROCS);
// like every worker knob in this module it changes wall-clock time
// only, never results — the solution is bit-identical for any value.
type FokkerPlanckConfig = fokkerplanck.Config

// FokkerPlanck is the finite-difference solver for Eq. 14.
type FokkerPlanck = fokkerplanck.Solver

// FPMoments are the low-order moments of the FP density.
type FPMoments = fokkerplanck.Moments

// NewFokkerPlanck builds an Eq. 14 solver.
func NewFokkerPlanck(cfg FokkerPlanckConfig) (*FokkerPlanck, error) {
	return fokkerplanck.New(cfg)
}

// Point is a phase-plane state (Q, λ).
type Point = characteristics.Point

// ExactPath is a closed-form AIMD characteristic trajectory.
type ExactPath = characteristics.ExactPath

// Behavior classifies a trajectory: Converging (Theorem 1 spiral),
// NeutralCycle, Diverging, or Inconclusive.
type Behavior = characteristics.Behavior

// Behavior values.
const (
	Converging   = characteristics.Converging
	NeutralCycle = characteristics.NeutralCycle
	Diverging    = characteristics.Diverging
	Inconclusive = characteristics.Inconclusive
)

// TraceExact integrates the AIMD characteristic system in closed form
// (Section 5): parabolic arcs below q̂, exponential arcs above,
// switching times located analytically.
func TraceExact(law AIMD, mu float64, p0 Point, maxTime float64, maxSegments int) (*ExactPath, error) {
	return characteristics.TraceExact(law, mu, p0, maxTime, maxSegments)
}

// DelayedPath is an exactly traced trajectory of the delayed system
// (Section 7): closed-form arcs with branch switches at the q̂-crossing
// times shifted by the feedback delay τ.
type DelayedPath = characteristics.DelayedPath

// CycleMetrics summarizes a delay-induced limit cycle.
type CycleMetrics = characteristics.CycleMetrics

// TraceExactDelayed integrates the delayed AIMD system exactly; its
// Cycle method measures the Section 7 limit cycle to machine
// precision.
func TraceExactDelayed(law AIMD, mu, tau float64, p0 Point, tEnd float64, maxSegments int) (*DelayedPath, error) {
	return characteristics.TraceExactDelayed(law, mu, tau, p0, tEnd, maxSegments)
}

// ReturnMap evaluates one revolution of the Poincaré map of the AIMD
// spiral at the section q = q̂ (Theorem 1's contraction; the small-
// amplitude law is a′ = a − (2/3)a²/μ).
func ReturnMap(law AIMD, mu, a float64) (float64, error) {
	return characteristics.ReturnMap(law, mu, a)
}

// EquilibriumPoint returns Theorem 1's limit point (q̂, μ).
func EquilibriumPoint(law Law, mu float64) Point {
	return characteristics.EquilibriumPoint(law, mu)
}

// FluidSource is one sender in the deterministic fluid model.
type FluidSource = fluid.Source

// FluidModel is the Bolot-Shankar deterministic baseline: coupled
// (delay) differential equations for Q and each λᵢ.
type FluidModel = fluid.Model

// FluidSolution is a solved fluid trajectory.
type FluidSolution = fluid.Solution

// PredictedShares returns Section 6's closed-form share law
// λᵢ ∝ C0ᵢ/C1ᵢ for AIMD sources sharing a bottleneck.
func PredictedShares(laws []AIMD) ([]float64, error) { return fluid.PredictedShares(laws) }

// PacketSimConfig configures the packet-level simulator.
type PacketSimConfig = des.Config

// PacketSource describes one sender in the packet simulator.
type PacketSource = des.SourceConfig

// PacketSim is the discrete-event packet-level simulator.
type PacketSim = des.Sim

// PacketSimResult summarizes a packet simulation run.
type PacketSimResult = des.Result

// NewPacketSim builds a packet-level simulator.
func NewPacketSim(cfg PacketSimConfig) (*PacketSim, error) { return des.New(cfg) }

// WindowSource describes a sender running the original window
// algorithm (Equation 1) in the packet simulator.
type WindowSource = des.WindowSourceConfig

// NewWindowSim builds a packet simulator whose sources run the window
// algorithm of Equation 1 (one update per RTT, rate = window/RTT).
func NewWindowSim(mu float64, seed uint64, sources []WindowSource, sampleEvery float64) (*PacketSim, error) {
	return des.NewWindowSim(mu, seed, sources, sampleEvery)
}

// TandemConfig describes a multi-hop tandem network simulation.
type TandemConfig = des.TandemConfig

// TandemSource is one flow through the tandem network.
type TandemSource = des.TandemSource

// TandemSim simulates flows over a path of store-and-forward hops —
// the setting of the Zhang/Jacobson multi-hop unfairness observation.
// New multi-hop code should prefer NetSim, which generalizes the
// tandem chain to arbitrary topologies; TandemSim remains as the
// hardwired special case netsim is tested against.
type TandemSim = des.TandemSim

// NewTandemSim builds a tandem-network simulator.
func NewTandemSim(cfg TandemConfig) (*TandemSim, error) { return des.NewTandem(cfg) }

// Arbitrary-topology packet network simulator (internal/netsim): a
// directed graph of queues with per-node gateway disciplines,
// carrying rate-controlled flows over explicit multi-hop routes. The
// single-node and linear-chain special cases reduce to PacketSim and
// TandemSim; new multi-hop code should start here.

// NetNode is one store-and-forward queue in a netsim topology.
type NetNode = netsim.Node

// NetLink is a directed edge with propagation delay.
type NetLink = netsim.Link

// NetFlow is one rate-controlled sender following a fixed multi-hop
// route.
type NetFlow = netsim.Flow

// NetConfig describes an arbitrary-topology packet simulation.
type NetConfig = netsim.Config

// NetSim is the general-topology packet simulator.
type NetSim = netsim.Sim

// NetResult summarizes a netsim run.
type NetResult = netsim.Result

// NewNetSim builds a general-topology packet simulator.
func NewNetSim(cfg NetConfig) (*NetSim, error) { return netsim.New(cfg) }

// ConstantRateLaw returns a zero-drift law: a flow using it sends at
// its initial rate forever, modelling uncontrolled cross-traffic.
func ConstantRateLaw() Law { return netsim.ConstantRate() }

// ParkingLotConfig parameterizes the parking-lot fairness benchmark.
type ParkingLotConfig = netsim.ParkingLotConfig

// NewParkingLot builds the parking-lot topology: one long flow over a
// chain of bottleneck hops, one short cross flow per hop.
func NewParkingLot(pc ParkingLotConfig) (NetConfig, error) { return netsim.ParkingLot(pc) }

// CrossChainConfig parameterizes the bottleneck-migration scenario.
type CrossChainConfig = netsim.CrossChainConfig

// NewCrossChain builds a two-hop chain with constant-rate cross
// traffic at the second hop.
func NewCrossChain(cc CrossChainConfig) (NetConfig, error) { return netsim.CrossChain(cc) }

// SweepParam is one axis of a scenario-sweep grid.
type SweepParam = netsim.Param

// SweepConfig describes an N-dimensional scenario sweep evaluated in
// parallel with deterministic per-cell seeds.
type SweepConfig = netsim.SweepConfig

// SweepCell is the aggregate of one sweep grid cell.
type SweepCell = netsim.CellResult

// SweepResult holds a completed sweep in grid order; WriteCSV and
// WriteJSON render it byte-identically for any worker count.
type SweepResult = netsim.SweepResult

// RunSweep shards the grid across parallel workers and aggregates
// per-flow throughput, fairness and queue statistics per cell.
func RunSweep(cfg SweepConfig) (*SweepResult, error) { return netsim.Sweep(cfg) }

// Engine-agnostic parameter sweeps (internal/sweep): the worker-pool,
// deterministic-seeding and byte-stable-aggregation machinery behind
// RunSweep, usable with any evaluation function — Fokker-Planck
// solves, DDE integrations, packet simulations, or anything else.
// Results (and any error) are independent of the worker count.

// GridDim is one named axis of a generic sweep grid.
type GridDim = sweep.Dim

// Grid is an N-dimensional parameter grid enumerated row-major (last
// dimension fastest).
type Grid = sweep.Grid

// GridCell is one evaluated point: its index in grid order, decoded
// dimension values, and deterministic per-cell seed.
type GridCell = sweep.Cell

// GridConfig describes a generic sweep: grid, base seed, worker bound.
type GridConfig = sweep.Config

// GridRow is one cell's output under a named-column schema (float64,
// integer, string or []float64 values).
type GridRow = sweep.Row

// GridResult holds a completed row-producing sweep; its WriteCSV and
// WriteJSON render full-precision output byte-identically for any
// worker count.
type GridResult = sweep.Result

// SweepGrid evaluates fn over every cell of the grid on up to
// cfg.Workers goroutines and returns the results in grid order. The
// error, if any, reports the lowest-indexed failing cell.
func SweepGrid[T any](cfg GridConfig, fn func(GridCell) (T, error)) ([]T, error) {
	return sweep.Run(cfg, fn)
}

// SweepGridRows evaluates a sweep whose cells produce named-column
// rows, for byte-stable CSV/JSON emission.
func SweepGridRows(cfg GridConfig, columns []string, fn func(GridCell) (GridRow, error)) (*GridResult, error) {
	return sweep.RunRows(cfg, columns, fn)
}

// Mean-field population engine (internal/meanfield): the paper's
// large-N limit made first-class. Heterogeneous classes of sources —
// mixed laws, RTTs, weights, populations — evolve as per-class rate
// densities coupled to the shared bottleneck queue, at
// O(classes × bins) cost per step independent of N, so 10⁶⁺-source
// scenarios run in milliseconds. MeanField is the one-node instance
// of the kinetic engine NetMeanField runs on a topology. A finite-N
// particle backend (structure-of-arrays, chunked worker pool,
// deterministic for any worker count) provides the stochastic ground
// truth the density limit is validated against (experiment E28).

// MeanFieldClass describes one homogeneous sub-population: law,
// population size, weight, feedback delay (RTT), route, initial rate
// blob and intrinsic rate noise. It is also NetMeanFieldClass: one
// class type serves both front ends, and its Route is nil (the
// bottleneck) on MeanField.
type MeanFieldClass = meanfield.Class

// MeanFieldConfig describes a mean-field scenario: class mix, shared
// bottleneck, rate domain and step. Both backends take the same
// config; its Workers field bounds the density engine's per-step
// class parallelism (0 = GOMAXPROCS) without affecting results.
type MeanFieldConfig = meanfield.Config

// MeanField is the kinetic (population-density) engine on the single
// shared bottleneck.
type MeanField = meanfield.Density

// MeanFieldParticles is the finite-N SoA particle backend.
type MeanFieldParticles = meanfield.Particles

// MeanFieldClasses builds the Classes slice of a MeanFieldConfig in
// one expression.
func MeanFieldClasses(classes ...MeanFieldClass) []MeanFieldClass { return classes }

// NewMeanField builds the kinetic engine: per-class rate densities on
// a shared λ-grid, upwind or MUSCL transport, coupled queue ODE.
func NewMeanField(cfg MeanFieldConfig) (*MeanField, error) { return meanfield.NewDensity(cfg) }

// NewMeanFieldParticles builds the finite-N particle backend; workers
// bounds the per-step parallelism (0 = GOMAXPROCS) and never affects
// results.
func NewMeanFieldParticles(cfg MeanFieldConfig, seed uint64, workers int) (*MeanFieldParticles, error) {
	return meanfield.NewParticles(cfg, seed, workers)
}

// MeanFieldStepper is the stepping surface both mean-field backends
// share.
type MeanFieldStepper = meanfield.Stepper

// MeanFieldSteadyStats advances either backend to the horizon and
// returns the window-averaged queue and per-class mean rates over
// [warm, horizon]; onStep (optional) runs after every step for trace
// sampling.
func MeanFieldSteadyStats(s MeanFieldStepper, warm, horizon float64, onStep func()) (meanQ float64, meanRates []float64, err error) {
	return meanfield.SteadyStats(s, warm, horizon, onStep)
}

// Networked mean-field engine (internal/netmf): the large-N kinetic
// limit over an arbitrary topology of fluid link queues — the join of
// NetSim's scenario class and MeanField's scaling. Classes of sources
// follow routes through a netsim-style node/link graph (NetTopology),
// observing the summed, delayed backlog of their path; stepping costs
// O(links + classes × bins) independent of every class's population,
// so parking-lot and bottleneck-migration studies run at 10⁶ sources
// per class (experiments E30, E31). It is the same kinetic engine as
// MeanField, which is its one-node instance.

// NetTopology is the node/link graph shared by NetSim and the
// networked mean-field engine (route validation, path delays).
type NetTopology = netsim.Topology

// NetMeanFieldClass is MeanFieldClass under its network name: on
// NetMeanField its Route is required and must follow the topology's
// links.
type NetMeanFieldClass = netmf.Class

// NetMeanFieldConfig describes a networked mean-field scenario
// (its Workers field bounds per-step class parallelism, 0 =
// GOMAXPROCS, without affecting results):
// topology, routed class mix, rate domain and step.
type NetMeanFieldConfig = netmf.Config

// NetMeanField is the networked kinetic engine: one rate density per
// class coupled to one fluid queue ODE per node.
type NetMeanField = netmf.Engine

// NewNetMeanField builds the networked kinetic engine.
func NewNetMeanField(cfg NetMeanFieldConfig) (*NetMeanField, error) { return netmf.New(cfg) }

// NetMeanFieldSteadyStats advances the networked engine to the
// horizon and returns the window-averaged per-node queues and
// per-class mean rates over [warm, horizon] — MeanFieldSteadyStats's
// window loop, read per node; onStep (optional) runs after every step
// for trace sampling.
func NetMeanFieldSteadyStats(e *NetMeanField, warm, horizon float64, onStep func()) (meanQ, meanRates []float64, err error) {
	return meanfield.NodeSteadyStats(e, warm, horizon, onStep)
}

// NetMeanFieldParkingLotConfig parameterizes the large-N parking-lot
// benchmark.
type NetMeanFieldParkingLotConfig = netmf.ParkingLotConfig

// NewNetMeanFieldParkingLot builds the parking-lot fairness benchmark
// as a mean-field class mix: one long class over a chain of hops, one
// cross class per hop.
func NewNetMeanFieldParkingLot(pc NetMeanFieldParkingLotConfig) (NetMeanFieldConfig, error) {
	return netmf.ParkingLot(pc)
}

// NetMeanFieldCrossChainConfig parameterizes the large-N
// bottleneck-migration scenario.
type NetMeanFieldCrossChainConfig = netmf.CrossChainConfig

// NewNetMeanFieldCrossChain builds the two-hop class-mix-ramp
// scenario: an adaptive class over both hops vs a constant-rate class
// at the second.
func NewNetMeanFieldCrossChain(cc NetMeanFieldCrossChainConfig) (NetMeanFieldConfig, error) {
	return netmf.CrossChain(cc)
}

// Open systems and adversarial traffic (internal/churn + misbehaving
// laws in internal/control): birth–death session dynamics — Poisson
// arrivals, exponential or heavy-tailed Pareto lifetimes — threaded
// through the kinetic engines as O(classes × bins) source/sink terms
// (MeanFieldClass.Churn, on either front end) and through the
// packet simulator as per-session birth/death events
// (NetConfig.Churn), plus the non-cooperating source laws the
// honest-vs-adversarial experiments E32–E34 are built on.

// ChurnLifetime is a session-lifetime distribution: a sampler for the
// packet engines and a hyperexponential phase mixture for the kinetic
// ones, so both views of the same open system agree.
type ChurnLifetime = churn.Lifetime

// ChurnPhase is one exponential phase of a lifetime's
// hyperexponential representation.
type ChurnPhase = churn.Phase

// ChurnExponential is the memoryless session lifetime.
type ChurnExponential = churn.Exponential

// ChurnPareto is the heavy-tailed (Pareto) session lifetime, fitted
// as a hyperexponential phase mixture for the density engines.
type ChurnPareto = churn.Pareto

// ChurnFlow opens one engine class: Poisson session arrivals, a
// lifetime distribution, and the newborn rate profile. Assign it to
// MeanFieldClass.Churn (the class type of both kinetic front ends).
type ChurnFlow = churn.Flow

// ChurnPulse is the synchronized on/off duty-cycle envelope of a
// blaster population in the density engines (the mean-field twin of a
// traffic.SquareWave-modulated packet source).
type ChurnPulse = churn.Pulse

// NetChurnClass is an open session class of the packet simulator:
// Poisson arrivals, sampled lifetimes, explicit per-session
// birth/death events (NetConfig.Churn).
type NetChurnClass = netsim.ChurnClass

// NewChurnExponential returns an exponential session lifetime with
// the given mean.
func NewChurnExponential(mean float64) (ChurnExponential, error) {
	return churn.NewExponential(mean)
}

// NewChurnPareto returns a Pareto session lifetime with tail index
// alpha (> 1) and scale xm.
func NewChurnPareto(alpha, xm float64) (ChurnPareto, error) { return churn.NewPareto(alpha, xm) }

// NewChurnPulse returns a duty-cycle envelope: factor hi for durHi
// seconds, lo for durLo, repeating from t = 0.
func NewChurnPulse(hi, lo, durHi, durLo float64) (*ChurnPulse, error) {
	return churn.NewPulse(hi, lo, durHi, durLo)
}

// UnresponsiveLaw is the open-loop blaster: zero drift, so a source
// holds its rate regardless of congestion feedback (a CBR flow, or an
// on/off blaster when combined with a Burst modulator or ChurnPulse).
type UnresponsiveLaw = control.Unresponsive

// GreedyLaw is the defecting law: it follows the additive-increase
// branch everywhere and ignores every decrease signal, probing up to
// its rate cap.
type GreedyLaw = control.Greedy

// NewGreedyLaw validates and returns a greedy law with probe gain c0
// and rate cap cap.
func NewGreedyLaw(c0, cap float64) (GreedyLaw, error) { return control.NewGreedy(c0, cap) }

// EnsembleConfig configures an SDE particle ensemble of the Eq. 14
// diffusion (the Monte-Carlo ground truth for the PDE). Its Workers
// field bounds the per-step chunk parallelism (0 = GOMAXPROCS);
// chunk streams are fixed by Particles and Seed alone, so results
// are byte-identical for any value.
type EnsembleConfig = sde.Config

// Ensemble is a reflected-SDE particle ensemble.
type Ensemble = sde.Ensemble

// NewEnsemble builds a particle ensemble.
func NewEnsemble(cfg EnsembleConfig) (*Ensemble, error) { return sde.New(cfg) }

// JainIndex is Jain's fairness index (1 = perfectly fair).
func JainIndex(alloc []float64) float64 { return stats.JainIndex(alloc) }

// KSTwoSample returns the two-sample Kolmogorov-Smirnov statistic and
// asymptotic p-value — a whole-distribution comparison used to test
// FP marginals against simulated queue samples.
func KSTwoSample(a, b []float64) (d, pValue float64, err error) { return stats.KSTwoSample(a, b) }

// BatchMeans estimates the mean of a correlated stationary series
// with a batch-means confidence half-width (z = 1.96 for 95%).
func BatchMeans(xs []float64, nBatches int, z float64) (mean, halfWidth float64, err error) {
	return stats.BatchMeans(xs, nBatches, z)
}

// Loop stability analysis (Section 7, made quantitative).

// Linearization holds the delayed feedback loop linearized at its
// equilibrium: dx/dt = y, dy/dt = A·x(t−τ) + B·y.
type Linearization = stability.Linearization

// Linearize computes the equilibrium and partial derivatives of a law
// at service rate mu, bracketing the equilibrium queue in [lo, hi].
func Linearize(law Law, mu, lo, hi float64) (*Linearization, error) {
	return stability.Linearize(law, mu, lo, hi)
}

// CriticalDelay returns the Hopf delay τ* and crossing frequency ω*
// of the linearized loop: stable for τ < τ*, oscillatory beyond.
func CriticalDelay(a, b float64) (tau, omega float64, err error) {
	return stability.CriticalDelay(a, b)
}

// DominantRoot returns the rightmost characteristic root of the
// delayed loop — its real part is the growth rate of disturbances.
func DominantRoot(a, b, tau float64) (complex128, error) {
	return stability.DominantRoot(a, b, tau)
}

// MultiSourceLinearize linearizes the symmetric (aggregate) mode of n
// identical delayed sources sharing the bottleneck; the result feeds
// CriticalDelay/DominantRoot directly. The n−1 difference modes are
// delay-free and damped at DifferenceModeRate.
func MultiSourceLinearize(law Law, mu float64, n int, lo, hi float64) (*Linearization, error) {
	return stability.MultiSourceLinearize(law, mu, n, lo, hi)
}

// DifferenceModeRate returns the decay rate of pairwise rate
// differences between equal-parameter, equal-delay sources (negative
// means fairness is restored exponentially even under delay).
func DifferenceModeRate(law Law, mu float64, n int, lo, hi float64) (float64, error) {
	return stability.DifferenceModeRate(law, mu, n, lo, hi)
}

// Exact Markov ground truth for Eq. 14.

// MarkovChain is a sparse finite-state CTMC with a uniformization
// transient solver.
type MarkovChain = markov.Chain

// BirthDeath is a one-dimensional birth-death chain (M/M/1/K and
// state-dependent variants) with product-form stationary laws.
type BirthDeath = markov.BirthDeath

// ControlledQueue is the exact CTMC on (queue length, discretized
// sending rate) induced by a control law — the finite-state analogue
// of the joint density f(t, q, v).
type ControlledQueue = markov.ControlledQueue

// NewControlledQueue builds the controlled-queue chain.
func NewControlledQueue(law Law, mu float64, qMax int, rateMin, rateMax float64, nRate int) (*ControlledQueue, error) {
	return markov.NewControlledQueue(law, mu, qMax, rateMin, rateMax, nRate)
}

// NewMM1K returns the birth-death chain of an M/M/1/K queue.
func NewMM1K(lambda, mu float64, k int) (*BirthDeath, error) { return markov.NewMM1K(lambda, mu, k) }

// Bursty traffic models (the "traffic variability" of the paper's
// closing claim).

// Modulator is a piecewise-constant rate-modulation process applied
// to a packet source (see PacketSource.Burst).
type Modulator = traffic.Modulator

// MMPP is a Markov-modulated Poisson process modulator.
type MMPP = traffic.MMPP

// NewOnOff returns an on/off burst modulator with mean factor 1
// (burstiness = (meanOn+meanOff)/meanOn).
func NewOnOff(meanOn, meanOff float64) (*MMPP, error) { return traffic.NewOnOff(meanOn, meanOff) }

// NewMMPP2 returns a two-state MMPP modulator with closed-form
// burstiness (MMPP.IDCInfinity).
func NewMMPP2(f1, f2, r12, r21 float64) (*MMPP, error) { return traffic.NewMMPP2(f1, f2, r12, r21) }

// IDC measures the index of dispersion for counts of an arrival-time
// series at the given window width (Poisson = 1).
func IDC(times []float64, window, horizon float64) (float64, error) {
	return traffic.IDC(times, window, horizon)
}

// Gateway feedback disciplines for the packet simulator.

// Gateway transforms the bottleneck queue into the congestion signal
// sources receive (see PacketSimConfig.Gateway).
type Gateway = des.Gateway

// ThresholdGateway is the paper's transparent raw-queue feedback.
type ThresholdGateway = des.ThresholdGateway

// EWMAGateway feeds back a DECbit-style averaged queue.
type EWMAGateway = des.EWMAGateway

// REDGateway marks observations probabilistically on an averaged
// queue (random early detection).
type REDGateway = des.REDGateway

// NewEWMAGateway returns an averaging gateway with time constant tc.
func NewEWMAGateway(tc float64) (*EWMAGateway, error) { return des.NewEWMAGateway(tc) }

// NewREDGateway returns a RED marking gateway.
func NewREDGateway(minTh, maxTh, maxP, tc float64) (*REDGateway, error) {
	return des.NewREDGateway(minTh, maxTh, maxP, tc)
}

// Ack-clocked window protocol (TCP Tahoe style).

// TahoeConfig configures the ack-clocked Tahoe simulator.
type TahoeConfig = des.TahoeConfig

// TahoeFlowConfig describes one Tahoe flow.
type TahoeFlowConfig = des.TahoeFlowConfig

// TahoeSim simulates slow start / congestion avoidance / timeout
// recovery against a finite drop-tail buffer.
type TahoeSim = des.TahoeSim

// TahoeResult summarizes a Tahoe run.
type TahoeResult = des.TahoeResult

// NewTahoeSim builds a Tahoe simulator.
func NewTahoeSim(cfg TahoeConfig) (*TahoeSim, error) { return des.NewTahoe(cfg) }

// Observability (internal/obs): an opt-in metrics/tracing/invariant
// layer every engine accepts via its config's Obs field. The nil
// default is a true no-op — engines pay one branch per step and
// produce byte-identical results with or without a recorder attached.

// ObsConfig configures the observability layer: an optional JSONL
// sink, the invariant-checking switch (which also arms the flight
// recorder), and a hook observing every root recorder created.
type ObsConfig = obs.Config

// ObsRecorder collects counters, span timings and probe series for
// one scope. A nil *ObsRecorder is the zero-overhead
// disabled state accepted everywhere.
type ObsRecorder = obs.Recorder

// ObsEvent is one record of the JSONL trace stream.
type ObsEvent = obs.Event

// ObsJSONL is a concurrency-safe streaming JSONL event sink.
type ObsJSONL = obs.JSONL

// ObsViolation is the step-stamped error an engine returns when an
// invariant check fails under ObsConfig.Invariants.
type ObsViolation = obs.Violation

// NewObsJSONL returns a streaming JSONL sink writing to w.
func NewObsJSONL(w io.Writer) *ObsJSONL { return obs.NewJSONL(w) }

// ObsProbeCatalog lists every probe series the engines emit, with
// units — the reference EXPERIMENTS.md documents.
func ObsProbeCatalog() []obs.ProbeSeries { return obs.Catalog() }

// ObsSummary is the point-in-time aggregate snapshot of a recorder
// hierarchy: counters, probe series and span totals, merged
// deterministically over the Child tree — the JSON run manifest
// -obs-summary writes.
type ObsSummary = obs.Summary

// ObsResources are process resource deltas (wall/CPU time, allocs,
// GC cycles) the suite runner attaches to each experiment's summary
// node when it runs one experiment at a time.
type ObsResources = obs.Resources

// ObsCLI holds the shared observability flags every command binds
// (-trace, -trace-chrome, -obs-listen, -obs-summary, -obs-invariants;
// -obs-invariants also keeps each recorder's most recent events for
// the post-mortem a violation carries).
type ObsCLI = obscli.CLI

// BindObsFlags registers the observability flags on fs (pass
// flag.CommandLine for the process flags). Call Setup after parsing,
// hand Recorder(scope) to engine configs, call DumpViolation on the
// run-error path, and defer Close.
func BindObsFlags(fs *flag.FlagSet) *ObsCLI { return obscli.Bind(fs) }

// WriteChromeTrace converts a JSONL event trace (the -trace output)
// into Chrome trace_event JSON, loadable in Perfetto.
func WriteChromeTrace(r io.Reader, w io.Writer) error { return chrometrace.Convert(r, w) }
