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
//     exact piecewise trajectories and their Poincaré-section hits,
//     converging to Theorem 1's equilibrium.
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
	"fpcc/internal/meanfield"
	"fpcc/internal/netmf"
	"fpcc/internal/netsim"
	"fpcc/internal/obs"
	"fpcc/internal/obs/obscli"
	"fpcc/internal/sde"
	"fpcc/internal/stability"
	"fpcc/internal/stats"
	"fpcc/internal/traffic"
)

// Law is a rate-control law g(q, λ): the drift of the sending rate
// given the observed queue length. The paper's Equation 4.
type Law = control.Law

// AIMD is the paper's linear-increase/exponential-decrease law
// (Equation 2), the rate analogue of the Jacobson / Ramakrishnan-Jain
// window algorithm: dλ/dt = +C0 when Q ≤ QHat, −C1·λ when Q > QHat.
type AIMD = control.AIMD

// SmoothAIMD is AIMD with the hard threshold replaced by a logistic
// blend — the differentiable variant the linear stability analysis
// (Linearize, CriticalDelay) requires.
type SmoothAIMD = control.SmoothAIMD

// NewAIMD validates and returns the paper's AIMD law.
func NewAIMD(c0, c1, qHat float64) (AIMD, error) { return control.NewAIMD(c0, c1, qHat) }

// NewSmoothAIMD validates and returns a smooth AIMD law of the given
// blend width.
func NewSmoothAIMD(c0, c1, qHat, width float64) (SmoothAIMD, error) {
	return control.NewSmoothAIMD(c0, c1, qHat, width)
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

// Path is a closed-form AIMD characteristic trajectory: parabolic
// and exponential arcs, with the queue stuck at 0 where it empties,
// joined at analytically located switching times. TraceExact returns
// one; its UpCrossings are the Poincaré-section hits at q = q̂.
type Path = characteristics.Path

// TraceExact integrates the AIMD characteristic system in closed form
// (Section 5): parabolic arcs below q̂, exponential arcs above,
// switching times located analytically.
func TraceExact(law AIMD, mu float64, p0 Point, maxTime float64, maxSegments int) (*Path, error) {
	return characteristics.TraceExact(law, mu, p0, maxTime, maxSegments)
}

// CycleMetrics summarizes a delay-induced limit cycle (Path.Cycle).
type CycleMetrics = characteristics.CycleMetrics

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

// PacketSimResult summarizes a packet simulation run: each source's
// post-warmup deliveries, drops, throughput and rate moments, the
// time-weighted queue moments, and the queue trace when
// PacketSimConfig.SampleEvery is set.
type PacketSimResult = des.Result

// NewPacketSim builds a packet-level simulator.
func NewPacketSim(cfg PacketSimConfig) (*PacketSim, error) { return des.New(cfg) }

// Arbitrary-topology packet network simulator (internal/netsim): a
// directed graph of queues with per-node gateway disciplines,
// carrying rate-controlled flows over explicit multi-hop routes. Its
// single-node special case reduces to PacketSim.

// NetNode is one store-and-forward queue in a netsim topology.
type NetNode = netsim.Node

// NetLink is a directed edge with propagation delay.
type NetLink = netsim.Link

// NetFlow is one rate-controlled sender following a fixed multi-hop
// route.
type NetFlow = netsim.Flow

// NetConfig describes an arbitrary-topology packet simulation: nodes,
// links, static flows and churn classes. It has no trace option; a
// run reports aggregates only (NetResult).
type NetConfig = netsim.Config

// NetSim is the general-topology packet simulator.
type NetSim = netsim.Sim

// NetResult summarizes a netsim run in post-warmup aggregates: each
// static flow's deliveries, drops and throughput, each node's queue
// moments and drops, and each churn class's population and traffic.
// It keeps no per-event trace.
type NetResult = netsim.Result

// NewNetSim builds a general-topology packet simulator.
func NewNetSim(cfg NetConfig) (*NetSim, error) { return netsim.New(cfg) }

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
// (NetConfig.Churn), plus the open-loop source law of the
// honest-vs-adversarial experiments E32–E34.

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
// alpha (at least 1.2, where its phase fit tracks the tail) and scale
// xm (in [1e-300, 1e300]).
func NewChurnPareto(alpha, xm float64) (ChurnPareto, error) { return churn.NewPareto(alpha, xm) }

// UnresponsiveLaw is the open-loop blaster: zero drift, so a source
// holds its rate regardless of congestion feedback (a CBR flow, or an
// on/off blaster when combined with a Burst modulator).
type UnresponsiveLaw = control.Unresponsive

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

// IDC measures the index of dispersion for counts of an arrival-time
// series at the given window width (Poisson = 1).
func IDC(times []float64, window, horizon float64) (float64, error) {
	return traffic.IDC(times, window, horizon)
}

// Gateway feedback disciplines for the packet simulator.

// Gateway transforms the bottleneck queue into the congestion signal
// sources receive (see PacketSimConfig.Gateway).
type Gateway = des.Gateway

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

// ObsViolation is the step-stamped error an engine returns when an
// invariant check fails under ObsConfig.Invariants.
type ObsViolation = obs.Violation

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
// flag.CommandLine for the process flags); the -obs-listen notice and
// the flight-recorder dumps go to stderr. Call Setup after parsing,
// hand Recorder(scope) to engine configs, call DumpViolation on the
// run-error path, and defer Close.
func BindObsFlags(fs *flag.FlagSet, stderr io.Writer) *ObsCLI { return obscli.Bind(fs, stderr) }
