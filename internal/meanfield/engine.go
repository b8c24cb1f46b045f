package meanfield

import (
	"fmt"
	"math"

	"fpcc/internal/grid"
	"fpcc/internal/linalg"
	"fpcc/internal/obs"
	"fpcc/internal/parallel"
)

// Network is the queue graph an Engine couples its classes to: one
// fluid queue per node; each class's Route says which queues it
// crosses. NewDensity builds the one-node network; internal/netmf
// derives it from a validated topology. Config.ValidateOn checks it.
type Network struct {
	// Scope prefixes every probe and violation field the engine emits
	// ("mf" for NewDensity, "netmf" for the networked scenarios).
	Scope string
	// Nodes holds each queue's display name.
	Nodes []string
	// Mu holds each node's service rate μ_j.
	Mu []float64
	// Q0, when non-nil, holds each node's initial queue length (nil
	// means every queue starts empty).
	Q0 []float64
}

// validate checks the network's shape, service rates and initial
// queues.
func (n *Network) validate() error {
	switch {
	case len(n.Nodes) == 0:
		return fmt.Errorf("meanfield: network has no nodes")
	case len(n.Mu) != len(n.Nodes):
		return fmt.Errorf("meanfield: %d service rates for %d nodes", len(n.Mu), len(n.Nodes))
	case n.Q0 != nil && len(n.Q0) != len(n.Nodes):
		return fmt.Errorf("meanfield: %d initial queues for %d nodes", len(n.Q0), len(n.Nodes))
	}
	for j, mu := range n.Mu {
		if !(mu > 0) || math.IsInf(mu, 1) {
			return fmt.Errorf("meanfield: node %s service rate must be positive, got %v", n.Nodes[j], mu)
		}
	}
	for j, q := range n.Q0 {
		if !finiteNonNeg(q) {
			return fmt.Errorf("meanfield: node %s has invalid initial queue %v", n.Nodes[j], q)
		}
	}
	return nil
}

// node0 is the route of a class without one.
var node0 = []int{0}

// route returns class k's route: Class.Route, or node 0 when nil.
func (e *Engine) route(k int) []int {
	if r := e.cfg.Classes[k].Route; r != nil {
		return r
	}
	return node0
}

// Engine is the kinetic solver: one kernel group per class (a single
// RateDensity for closed classes, one per lifetime phase for open
// ones), coupled to one fluid queue per network node, each with an
// interpolated history for delayed observation.
//
// Scheme, per step (operator splitting, mirroring the particle
// backend's update order so the two stay comparable):
//
//  1. every class's offered rate Λ_k = w_k N_k ⟨λ⟩_k is read from the
//     current densities, and each node's arrival rate is accumulated
//     as A_j = Σ_{k : j ∈ route_k} Λ_k (class order, so sums are
//     deterministic);
//  2. each class observes its delayed path backlog
//     B_k = Σ_{j ∈ route_k} Q_j(t−τ_k) from the per-node histories
//     and caches (CFL-checks) its drift g_k(B_k, λ) — no density is
//     mutated until every class has passed the check;
//  3. each f_k is advected — conservative first-order upwind, or
//     MUSCL/minmod when Config.SecondOrder is set — with zero-flux
//     ends, then diffused by (σ_k²/2)·f_λλ with a Crank-Nicolson
//     tridiagonal solve when σ_k > 0, then clipped and (open classes)
//     given its births and deaths;
//  4. every queue advances by Q_j ← max(Q_j + (A_j − μ_j)·Dt, 0) and
//     records its history.
//
// Tiny negative undershoots from the explicit sweeps are clipped and
// the clipped mass tracked (ClippedMass); means are normalized by the
// per-class mass so the audit quantity does not bias the coupling.
// Steps cost O(nodes + classes × bins + Σ_k |route_k|), independent of
// every population size N_k.
//
// Step 3 runs on a partition fixed at NewEngine: the classes are cut
// into one contiguous group per worker (Config.Workers, 0 meaning the
// GOMAXPROCS of that moment). A group advects all its kernels, then
// runs the diffusion solves of all of them through linalg.StepLanes,
// then clips and applies churn, so equal-size solves interleave. The
// phase kernels of an open class share one cached drift. Every kernel
// does the same arithmetic in any group, so results do not depend on
// the worker count.
type Engine struct {
	cfg Config
	net Network
	// prefix ("<scope>.") heads every probe and violation field; gate
	// ("<scope>.q") is the series gating each probe snapshot. Both are
	// built only when a recorder is attached.
	prefix, gate string
	kerns        []*classKernel
	groups       []kernelGroup
	stepGroup    func(w, g int) // e.runGroup, bound once at NewEngine
	q            []float64
	arr          []float64 // per-node arrival rate of the current step
	hist         []History
	t            float64

	maxDelay float64
	step     int64 // completed steps, stamping probes and violations
}

// NewEngine builds the kinetic engine on net with every class
// initialized to its (grid-discretized, renormalized) Gaussian blob
// and every queue to its Q0 entry. Open classes (Class.Churn) get one
// phase kernel per lifetime phase, each starting with the phase's
// share of the blob. cfg.Mu and cfg.Q0 are not read: the network
// carries every node's service rate and initial queue.
func NewEngine(cfg Config, net Network) (*Engine, error) {
	if err := cfg.ValidateOn(net); err != nil {
		return nil, err
	}
	nodes := len(net.Nodes)
	e := &Engine{
		cfg:      cfg,
		net:      net,
		q:        make([]float64, nodes),
		arr:      make([]float64, nodes),
		hist:     make([]History, nodes),
		maxDelay: cfg.maxDelay(),
	}
	if cfg.Obs.Enabled() {
		e.prefix, e.gate = net.Scope+".", net.Scope+".q"
	}
	copy(e.q, net.Q0)
	for k, cl := range cfg.Classes {
		kern, err := newClassKernel(cfg.LMax, cfg.Bins, cl.Lambda0, cl.InitStd, cfg.SecondOrder, cl.N, cl.Churn)
		if err != nil {
			return nil, fmt.Errorf("meanfield: class %d: %w", k, err)
		}
		e.kerns = append(e.kerns, kern)
	}
	e.partition(parallel.Workers(cfg.Workers))
	e.stepGroup = e.runGroup
	for j := range e.hist {
		e.hist[j].Record(0, e.q[j], 0)
	}
	return e, nil
}

// Time returns the current simulation time.
func (e *Engine) Time() float64 { return e.t }

// NumNodes returns the number of queues.
func (e *Engine) NumNodes() int { return len(e.q) }

// Queue returns the current fluid queue length at node j.
func (e *Engine) Queue(j int) float64 { return e.q[j] }

// Queues returns a copy of every node's current queue length.
func (e *Engine) Queues() []float64 {
	return append([]float64(nil), e.q...)
}

// TotalQueue returns the summed queue length over all nodes.
func (e *Engine) TotalQueue() float64 {
	var s float64
	for _, q := range e.q {
		s += q
	}
	return s
}

// NumClasses returns the number of classes.
func (e *Engine) NumClasses() int { return len(e.kerns) }

// ClassMeanRate returns ⟨λ⟩_k, the mean per-source rate of class k.
// Unlike ClassMoments it makes a single pass (no variance), so the
// per-step coupling stays one O(bins) sweep per class.
func (e *Engine) ClassMeanRate(k int) float64 { return e.kerns[k].MeanRate() }

// ClassMoments returns the mean and variance of class k's rate
// density, normalized by its current mass.
func (e *Engine) ClassMoments(k int) (mean, variance float64) {
	return e.kerns[k].Moments()
}

// Marginal returns a copy of class k's rate density (length Bins,
// cell-centered on [0, LMax]; phase kernels summed for open classes).
func (e *Engine) Marginal(k int) []float64 { return e.kerns[k].Marginal() }

// RateGrid returns the λ-axis the densities live on.
func (e *Engine) RateGrid() grid.Uniform1D { return e.kerns[0].Grid() }

// ClippedMass returns the total probability mass ADDED by zeroing
// negative undershoots, summed over classes (so the exact budget is
// ∫f_k summed = classes + ClippedMass + born − died) — a
// discretization audit, not a physical gain.
func (e *Engine) ClippedMass() float64 {
	var c float64
	for _, kern := range e.kerns {
		c += kern.ClippedMass()
	}
	return c
}

// ClassPopulation returns class k's live population N_k·LiveMass_k —
// exactly N_k for closed classes, the birth–death ledger's value for
// open ones.
func (e *Engine) ClassPopulation(k int) float64 {
	return float64(e.cfg.Classes[k].N) * e.kerns[k].LiveMass()
}

// ClassOfferedRate returns Λ_k = w_k N_k ⟨λ⟩_k · live_k · env_k(t),
// the rate class k currently offers to every hop of its route: the
// classic coupling scaled by an open class's live mass and a pulsed
// class's envelope factor (both factors exactly 1, and skipped, for
// classic classes).
func (e *Engine) ClassOfferedRate(k int) float64 {
	rate := e.cfg.weight(k) * float64(e.cfg.Classes[k].N) * e.kerns[k].MeanRate()
	if e.cfg.Classes[k].Churn != nil {
		rate *= e.kerns[k].LiveMass()
	}
	if p := e.cfg.Classes[k].Pulse; p != nil {
		rate *= p.FactorAt(e.t)
	}
	return rate
}

// NodeArrival returns node j's total arrival rate at the current
// densities, Σ over classes routing through j of Λ_k.
func (e *Engine) NodeArrival(j int) float64 {
	var a float64
	for k := range e.kerns {
		for _, h := range e.route(k) {
			if h == j {
				a += e.ClassOfferedRate(k)
			}
		}
	}
	return a
}

// PathBacklog returns B_k(t−τ_k): the delayed path backlog class k's
// controllers observe at the current time — per-node queue histories
// interpolated at t−τ_k and summed along the route (the live queues
// at zero delay).
func (e *Engine) PathBacklog(k int) float64 {
	var b float64
	if tau := e.cfg.Classes[k].Delay; tau > 0 {
		obsT := e.t - tau
		for _, j := range e.route(k) {
			b += e.hist[j].At(obsT)
		}
	} else {
		for _, j := range e.route(k) {
			b += e.q[j]
		}
	}
	return b
}

// FaultInjectQueue overwrites node j's live queue without touching
// its history — a fault-injection hook for the invariant tests, which
// poison a queue and assert the next step's check names the exact
// node and step. Never called outside tests.
func (e *Engine) FaultInjectQueue(j int, q float64) { e.q[j] = q }

// FaultInjectBorn adds delta to the born ledger of class k's phase
// kernel without depositing any density mass — the ledger-corruption
// counterpart of FaultInjectQueue. Never called outside tests.
func (e *Engine) FaultInjectBorn(k, phase int, delta float64) {
	e.kerns[k].FaultInjectBorn(phase, delta)
}

// Step advances the system by one Dt. It returns an error if a
// node's queue would leave the float range or any class's drift
// violates the CFL bound max|g|·Dt/Δλ ≤ 1 (choose a smaller Dt or a
// coarser grid); both checks run before any state is mutated, so a
// failing Step leaves the solver exactly as it was.
func (e *Engine) Step() error {
	dt := e.cfg.Dt
	// 1. Arrival rates from the current densities, accumulated in
	// class order.
	for j := range e.arr {
		e.arr[j] = 0
	}
	for k := range e.kerns {
		lam := e.ClassOfferedRate(k)
		for _, j := range e.route(k) {
			e.arr[j] += lam
		}
	}
	for j, a := range e.arr {
		if q := e.q[j] + (a-e.net.Mu[j])*dt; math.IsInf(q, 1) {
			return fmt.Errorf("meanfield: node %s queue overflows (arrival rate %v)", e.net.Nodes[j], a)
		}
	}
	// 2. Delayed path backlogs and CFL-checked drifts, before any
	// mutation.
	for k, kern := range e.kerns {
		if err := kern.SetDrift(e.cfg.Classes[k].Law, e.PathBacklog(k), dt); err != nil {
			return fmt.Errorf("meanfield: class %d %v", k, err)
		}
	}
	// 3. Transport and diffusion sweeps (and the birth–death ledgers)
	// — per-class kernels touch only their own densities, so the
	// class groups run on the worker pool.
	parallel.EachWorker(len(e.groups), len(e.groups), e.stepGroup)
	// 4. Fluid queue ODEs and their histories.
	e.t += dt
	cut := e.t - e.maxDelay - 1
	for j := range e.q {
		e.q[j] = math.Max(e.q[j]+(e.arr[j]-e.net.Mu[j])*dt, 0)
		e.hist[j].Record(e.t, e.q[j], cut)
	}
	e.step++
	if rec := e.cfg.Obs; rec.Enabled() {
		if err := e.observe(rec); err != nil {
			return err
		}
	}
	return nil
}

// kernelGroup is one worker's contiguous range of classes [lo, hi),
// with the Crank-Nicolson systems of its diffusing kernels (those of
// classes with σ > 0, in class and phase order) laid out as
// linalg.StepLanes takes them, and the factor r each is built for.
type kernelGroup struct {
	lo, hi  int
	rr      []float64
	facs    []*linalg.CNFactor
	xs, dps [][]float64
}

// partition cuts the classes into min(workers, classes) contiguous
// groups of as equal a class count as possible. The lanes of all
// groups are laid out once, in class order, so each group's lanes are
// one window of them.
func (e *Engine) partition(workers int) {
	lanes := 0
	for k, kern := range e.kerns {
		if e.cfg.Classes[k].SigmaL > 0 {
			lanes += len(kern.ph)
		}
	}
	rr := make([]float64, 0, lanes)
	facs := make([]*linalg.CNFactor, 0, lanes)
	xs := make([][]float64, 0, lanes)
	dps := make([][]float64, 0, lanes)
	start := make([]int, len(e.kerns)+1) // each class's first lane
	for k, kern := range e.kerns {
		if sigma := e.cfg.Classes[k].SigmaL; sigma > 0 {
			for _, rd := range kern.ph {
				rr = append(rr, rd.diffusionR(sigma, e.cfg.Dt))
				facs = append(facs, &rd.fac)
				xs = append(xs, rd.f)
				dps = append(dps, rd.col)
			}
		}
		start[k+1] = len(rr)
	}
	n := len(e.kerns)
	workers = min(workers, n)
	e.groups = make([]kernelGroup, workers)
	for g := range e.groups {
		lo, hi := g*n/workers, (g+1)*n/workers
		a, b := start[lo], start[hi]
		e.groups[g] = kernelGroup{lo: lo, hi: hi, rr: rr[a:b], facs: facs[a:b], xs: xs[a:b], dps: dps[a:b]}
	}
}

// runGroup is step 3 for group g: advect every kernel, diffuse the
// diffusing ones together, then clip and apply churn. Advect has
// already marked each kernel's cached sums stale when the solves
// write f, and ClampNegative refreshes them.
func (e *Engine) runGroup(_, g int) {
	grp := &e.groups[g]
	dt := e.cfg.Dt
	kerns := e.kerns[grp.lo:grp.hi]
	for _, kern := range kerns {
		kern.Advect(dt)
	}
	for i, f := range grp.facs {
		f.Ensure(grp.rr[i], len(grp.xs[i]))
	}
	linalg.StepLanes(grp.facs, grp.xs, grp.dps)
	for _, kern := range kerns {
		kern.ClampNegative()
		kern.StepChurn(dt)
	}
}

// observe feeds the attached recorder after a completed step: probe
// samples when due (the per-class moment passes are O(bins), computed
// only then), invariant checks when enabled.
func (e *Engine) observe(rec *obs.Recorder) error {
	if rec.ProbeDue(e.gate, e.t) {
		// One shared rate-limit series (the total queue) gates the
		// whole snapshot, so every node and class samples at the same
		// times.
		rec.Probe(e.gate, e.t, e.TotalQueue())
		for j, q := range e.q {
			rec.Probe(e.prefix+e.net.Nodes[j]+".q", e.t, q)
		}
		rec.Probe(e.prefix+"clipped", e.t, e.ClippedMass())
		for k, kern := range e.kerns {
			name := e.prefix + e.cfg.ClassName(k)
			mean, variance := kern.Moments()
			rec.Probe(name+".lambda", e.t, e.ClassOfferedRate(k))
			rec.Probe(name+".mean", e.t, mean)
			rec.Probe(name+".var", e.t, variance)
			if kern.Open() {
				rec.Probe(name+".pop", e.t, e.ClassPopulation(k))
				rec.Probe(name+".born", e.t, float64(e.cfg.Classes[k].N)*kern.Born())
				rec.Probe(name+".died", e.t, float64(e.cfg.Classes[k].N)*kern.Died())
			}
		}
	}
	if !rec.Invariants() {
		return nil
	}
	for k, kern := range e.kerns {
		if err := kern.CheckInvariants(rec, e.step, e.t, e.prefix+e.cfg.ClassName(k)); err != nil {
			return err
		}
	}
	for j, q := range e.q {
		field := e.prefix + e.net.Nodes[j]
		if err := rec.CheckFinite(e.step, e.t, field+".q", q); err != nil {
			return err
		}
		if err := rec.CheckMonotoneTail(e.step, field+".history", e.hist[j].TailTimes()); err != nil {
			return err
		}
	}
	return nil
}

// Run advances until time tEnd (whole steps; the final partial step
// is skipped when shorter than Dt/2 to keep the engine and the
// particle backend on the same uniform time lattice).
func (e *Engine) Run(tEnd float64) error {
	for e.t+e.cfg.Dt/2 <= tEnd {
		if err := e.Step(); err != nil {
			return err
		}
	}
	return nil
}
