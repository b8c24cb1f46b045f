package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"fpcc/internal/control"
	"fpcc/internal/dde"
	"fpcc/internal/des"
	"fpcc/internal/eventq"
	"fpcc/internal/fokkerplanck"
	"fpcc/internal/linalg"
	"fpcc/internal/meanfield"
	"fpcc/internal/netmf"
	"fpcc/internal/netsim"
	"fpcc/internal/obs"
	"fpcc/internal/parallel"
	"fpcc/internal/rng"
	"fpcc/internal/sde"
	"fpcc/internal/stability"
	"fpcc/internal/stats"
	"fpcc/internal/sweep"
)

// The replay times calls into each layer's public functions from
// outside, at the configurations the experiments use. Calls of a
// microsecond or more get one span each; nanosecond-scale calls run in
// batches of nsBatch per span. It runs once with spans off and once
// with spans on: the metrics come from the second run, and the gap
// between the two totals is the tracing overhead.

const nsBatch = 4096

// replay is one run of every probe.
type replay struct {
	tr     *tracer
	seed   uint64
	probe  int // index of the running probe
	values []metric
	busy   time.Duration // wall time inside the timed loops
	sink   float64       // consumes results the compiler must not discard
}

// probeSeed derives the running probe's seed from -seed.
func (r *replay) probeSeed() uint64 { return sweep.CellSeed(r.seed, r.probe) }

// loop calls body n times, each call one span named name; prep, when
// non-nil, runs untimed before each call. body returns how many units
// of work it did, and loop returns the seconds per unit of every call —
// nil when spans are off, since then nothing is timed per call.
func (r *replay) loop(name string, n int, prep func(i int) error, body func() (float64, error)) ([]float64, error) {
	var per []float64
	if r.tr.on {
		per = make([]float64, 0, n)
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if prep != nil {
			r.busy += time.Since(start)
			if err := prep(i); err != nil {
				return nil, err
			}
			start = time.Now()
		}
		r.tr.begin(name)
		work, err := body()
		d := r.tr.end()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if per != nil {
			per = append(per, d.Seconds()/work)
		}
	}
	r.busy += time.Since(start)
	return per, nil
}

// put records a metric; a no-op with spans off.
func (r *replay) put(name string, v float64, n int) {
	if r.tr.on {
		r.values = append(r.values, newMetric(name, v, n))
	}
}

// med records the median of per (seconds per unit) in name's unit;
// nothing when a failed probe left no samples.
func (r *replay) med(name string, per []float64) {
	if len(per) > 0 {
		r.put(name, stats.Quantile(per, 0.5)*unitScale[unitOf(name)], len(per))
	}
}

// dist records base.p50 and base.p99.
func (r *replay) dist(base string, per []float64) {
	r.med(base+".p50", per)
	if v, ok := p99(per); ok {
		r.put(base+".p99", v*unitScale[unitOf(base+".p99")], len(per))
	}
}

// allocs runs fn once and returns the bytes (in MB) and objects it
// allocated. Only the traced run measures it, since only it reports.
func (r *replay) allocs(fn func() error) (mb, mallocs float64, err error) {
	if !r.tr.on {
		return 0, 0, nil
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err = fn()
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20), float64(m1.Mallocs - m0.Mallocs), err
}

// finite reports an error naming the first non-finite value.
func finite(what string, vs ...float64) error {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s is not finite: %v", what, vs)
		}
	}
	return nil
}

// one is the unit count of a body that makes one call.
func one(err error) (float64, error) { return 1, err }

// probe is one replayed layer call site; name is its group span.
type probe struct {
	name string
	run  func(r *replay) error
}

var probes = []probe{
	// fp-vs-mc
	{"sde.step", probeSDE},
	{"fokkerplanck.step", func(r *replay) error { return probeFP(r, false) }},
	{"fokkerplanck.step2", func(r *replay) error { return probeFP(r, true) }},
	{"fokkerplanck.observe", probeFPObserve},
	{"rng.norm", probeNorm},
	{"control.drifts", probeDrifts},
	{"linalg.cn_step", func(r *replay) error { return probeCN(r, "linalg.cn_step_ns", 150) }},
	{"obs.disabled", probeDisabledObs},
	// kinetic-1e6
	{"meanfield.density_step", probeDensity},
	{"meanfield.ratedensity", probeRateDensity},
	{"linalg.cn_step_rate", func(r *replay) error { return probeCN(r, "linalg.cn_step_rate_ns", 160) }},
	{"meanfield.particles_step", probeParticles},
	{"netmf.step", probeNetmf},
	{"netmf.churn_step", probeNetmfChurn},
	{"meanfield.history_at", probeHistoryAt},
	// fluid-dde
	{"fluid.solve", probeFluid},
	{"dde.solve", probeDDE},
	{"stability.critical_delay", probeCriticalDelay},
	// packet-des
	{"des.run", probeDES},
	{"des.tahoe_run", probeTahoe},
	{"des.tandem_run", probeTandem},
	{"netsim.run", probeNetsim},
	{"eventq.push_pop", probeEventq},
	{"rng.exp", probeExp},
	// sharded-2
	{"parallel.for", probeParallelFor},
	{"sweep.map", probeSweepMap},
	{"sde.step_w2", probeSDEW2},
	{"fokkerplanck.step_w2", probeFPW2},
	{"netmf.step_w2", probeNetmfW2},
}

// runReplay runs every probe under one root span and returns the run
// and the probes that failed.
func runReplay(tr *tracer, seed uint64) (*replay, []string) {
	r := &replay{tr: tr, seed: seed}
	var failures []string
	tr.begin("replay")
	for i, p := range probes {
		r.probe = i
		tr.begin(p.name)
		err := p.run(r)
		tr.end()
		if err != nil {
			failures = append(failures, p.name+": "+err.Error())
		}
	}
	tr.end()
	return r, failures
}

func probeSDE(r *replay) error {
	e, err := sde.New(e9SDE(40000, 1, r.probeSeed()))
	if err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	per, err := r.loop("sde.Ensemble.Step", 1000, nil, func() (float64, error) { e.Step(); return 1, nil })
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	r.dist("sde.step_us", per)
	r.put("sde.step_allocs", float64(m1.Mallocs-m0.Mallocs)/1000, 1000)
	m := e.Moments()
	return finite("sde moments", m.MeanQ, m.VarQ, m.MeanLam)
}

func probeFP(r *replay, secondOrder bool) error {
	s, err := newE9FP(secondOrder, 1)
	if err != nil {
		return err
	}
	name, metric := "fokkerplanck.Solver.Step/upwind", "fokkerplanck.step_us"
	if secondOrder {
		name, metric = "fokkerplanck.Solver.Step/muscl", "fokkerplanck.step2_us"
	}
	dt := s.MaxStableDt()
	per, err := r.loop(name, 1000, nil, func() (float64, error) { return one(s.Step(dt)) })
	if err != nil {
		return err
	}
	r.dist(metric, per)
	return checkFPMass(s)
}

// checkFPMass checks the solver's mass budget ∫f = 1 + clipped − outflow.
func checkFPMass(s *fokkerplanck.Solver) error {
	m := s.Moments()
	if want := 1 + s.ClippedMass() - s.OutflowMass(); !(math.Abs(m.Mass-want) < 1e-6) {
		return fmt.Errorf("fokkerplanck mass %v, budget %v", m.Mass, want)
	}
	return nil
}

func probeFPObserve(r *replay) error {
	s, err := newE9FP(false, 1)
	if err != nil {
		return err
	}
	if err := s.Advance(5, 0); err != nil {
		return err
	}
	marg := make([]float64, 0, 150)
	per, err := r.loop("fokkerplanck.Solver.observe", 1000, nil, func() (float64, error) {
		m := s.Moments()
		marg = s.AppendMarginalQ(marg[:0])
		r.sink += m.MeanQ + marg[0] + s.TailProb(30)
		return 1, nil
	})
	if err != nil {
		return err
	}
	r.med("fokkerplanck.observe_us", per)
	return finite("fokkerplanck observables", r.sink)
}

func probeNorm(r *replay) error {
	src := rng.New(r.probeSeed())
	per, err := r.loop("rng.Source.Norm", 256, nil, func() (float64, error) {
		var s float64
		for i := 0; i < nsBatch; i++ {
			s += src.Norm()
		}
		r.sink += s
		return nsBatch, nil
	})
	if err != nil {
		return err
	}
	r.med("rng.norm_ns", per)
	return finite("rng.Norm sum", r.sink)
}

// probeDrifts times the batch drift over one SDE chunk of 4096
// particles, the call sde.Ensemble.Step makes per chunk.
func probeDrifts(r *replay) error {
	src := rng.New(r.probeSeed())
	q, lam, dst := make([]float64, nsBatch), make([]float64, nsBatch), make([]float64, nsBatch)
	for i := range q {
		q[i], lam[i] = 40*src.Float64(), 20*src.Float64()
	}
	per, err := r.loop("control.Drifts", 1000, nil, func() (float64, error) {
		control.Drifts(refLaw, q, lam, dst)
		return nsBatch, nil
	})
	if err != nil {
		return err
	}
	r.med("control.drifts_ns", per)
	return finite("drifts", dst...)
}

// probeCN times one Crank-Nicolson diffusion step of an n-cell
// system: n = 150 is the Fokker-Planck q axis, n = 160 the rate grid
// of E28/E32/E34.
func probeCN(r *replay, metric string, n int) error {
	src := rng.New(r.probeSeed())
	var f linalg.CNFactor
	f.Ensure(0.35, n)
	x, dp := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i] = src.Float64()
	}
	per, err := r.loop("linalg.CNFactor.Step", 2000, nil, func() (float64, error) {
		f.Step(x, dp)
		return 1, nil
	})
	if err != nil {
		return err
	}
	r.med(metric, per)
	return finite("CN solution", x...)
}

// disabledRecorder hides the nil recorder from the compiler, as an
// engine's Obs field does.
//
//go:noinline
func disabledRecorder() *obs.Recorder { return nil }

// probeDisabledObs times the gate an uninstrumented engine step pays
// at each probe site.
func probeDisabledObs(r *replay) error {
	rec := disabledRecorder()
	per, err := r.loop("obs.Recorder.Enabled", 256, nil, func() (float64, error) {
		for i := 0; i < nsBatch; i++ {
			if rec.Enabled() {
				rec.Probe("q", float64(i), 1)
			}
			if rec.Invariants() {
				if err := rec.CheckFinite(int64(i), 0, "q", 1); err != nil {
					return 0, err
				}
			}
		}
		return nsBatch, nil
	})
	if err != nil {
		return err
	}
	r.med("obs.disabled_ns", per)
	return nil
}

// The kinetic and sharded probes pin the engines' Workers to 1 or 2.
// The experiments leave Workers at 0 (GOMAXPROCS) for their density
// and netmf engines; pinning separates the serial kernel cost from the
// dispatch cost.

func probeDensity(r *replay) error {
	cfg := e32Cell()
	cfg.Workers = 1
	d, err := meanfield.NewDensity(cfg)
	if err != nil {
		return err
	}
	per, err := r.loop("meanfield.Density.Step", 1000, nil, func() (float64, error) { return one(d.Step()) })
	if err != nil {
		return err
	}
	r.dist("meanfield.density_step_us", per)
	return finite("density queue", d.Queue(), d.AggregateRate())
}

// probeRateDensity times the three per-class kernels of a density
// step on E28's rate grid, alternating the observed queue across the
// AIMD threshold so both drift branches run.
func probeRateDensity(r *replay) error {
	rd, err := meanfield.NewRateDensity(4, 160, 1, 0.3, true)
	if err != nil {
		return err
	}
	law := control.AIMD{C0: 0.5, C1: 0.5, QHat: 20000}
	const dt = 0.01
	per, err := r.loop("meanfield.RateDensity.SetDrift", 16, nil, func() (float64, error) {
		for i := 0; i < nsBatch; i++ {
			if err := rd.SetDrift(law, 15000+float64(i%2)*10000, dt); err != nil {
				return 0, err
			}
		}
		return nsBatch, nil
	})
	if err != nil {
		return err
	}
	r.med("meanfield.setdrift_us", per)
	per, err = r.loop("meanfield.RateDensity.Advect", 1000, nil, func() (float64, error) {
		rd.Advect(dt)
		return 1, nil
	})
	if err != nil {
		return err
	}
	r.med("meanfield.advect_us", per)
	per, err = r.loop("meanfield.RateDensity.Diffuse", 1000, nil, func() (float64, error) {
		rd.Diffuse(0.3, dt)
		return 1, nil
	})
	if err != nil {
		return err
	}
	r.med("meanfield.diffuse_us", per)
	rd.ClampNegative()
	if m := rd.Mass(); !(math.Abs(m-1) < 1e-6) {
		return fmt.Errorf("rate density mass %v after transport, want 1", m)
	}
	return nil
}

func probeParticles(r *replay) error {
	p, err := meanfield.NewParticles(mfScaled(10000), r.probeSeed(), 1)
	if err != nil {
		return err
	}
	per, err := r.loop("meanfield.Particles.Step", 300, nil, func() (float64, error) { return one(p.Step()) })
	if err != nil {
		return err
	}
	r.med("meanfield.particles_step_us", per)
	return finite("particle queue", p.Queue())
}

func stepNetmf(r *replay, span string, cfg netmf.Config, n int) ([]float64, error) {
	e, err := netmf.New(cfg)
	if err != nil {
		return nil, err
	}
	per, err := r.loop(span, n, nil, func() (float64, error) { return one(e.Step()) })
	if err != nil {
		return nil, err
	}
	return per, finite("netmf queues", e.Queues()...)
}

func probeNetmf(r *replay) error {
	cfg, err := e30Lot(1)
	if err != nil {
		return err
	}
	per, err := stepNetmf(r, "netmf.Engine.Step", cfg, 1000)
	r.dist("netmf.step_us", per)
	return err
}

func probeNetmfChurn(r *replay) error {
	cfg, err := e34Churn(1)
	if err != nil {
		return err
	}
	per, err := stepNetmf(r, "netmf.Engine.Step/churn", cfg, 300)
	r.med("netmf.churn_step_us", per)
	return err
}

// probeHistoryAt times delayed-queue lookups in an 80 s history sampled
// every 10 ms, the density engines' step and window.
func probeHistoryAt(r *replay) error {
	src := rng.New(r.probeSeed())
	var h meanfield.History
	for i := 0; i <= 8000; i++ {
		h.Record(float64(i)*0.01, 2e6*(1+0.1*src.Norm()), 0)
	}
	ts := make([]float64, nsBatch)
	for i := range ts {
		ts[i] = 80 * src.Float64()
	}
	per, err := r.loop("meanfield.History.At", 128, nil, func() (float64, error) {
		var s float64
		for _, t := range ts {
			s += h.At(t)
		}
		r.sink += s
		return nsBatch, nil
	})
	if err != nil {
		return err
	}
	r.med("meanfield.history_at_ns", per)
	return finite("history lookups", r.sink)
}

// probeFluid solves E5's model over 200 s instead of 4000 s.
func probeFluid(r *replay) error {
	m := e5Model()
	solve := func() error {
		sol, err := m.Solve(200, 1e-3, 200)
		if err != nil {
			return err
		}
		_, y := sol.Last()
		return finite("fluid state", y...)
	}
	per, err := r.loop("fluid.Model.Solve", 10, nil, func() (float64, error) { return one(solve()) })
	if err != nil {
		return err
	}
	r.med("fluid.solve_ms", per)
	mb, mallocs, err := r.allocs(solve)
	r.put("fluid.solve_alloc_mb", mb, 1)
	r.put("fluid.solve_mallocs", mallocs, 1)
	return err
}

// probeDDE solves E24's four-source delay system over 60 s instead of
// 300 s.
func probeDDE(r *replay) error {
	law, err := smoothLaw()
	if err != nil {
		return err
	}
	sys, hist := e24System(law, 4)
	solve := func() error {
		res, err := dde.Solve(sys, hist, []float64{0.35}, 0, 60, 0.001, dde.Options{Stride: 100})
		if err != nil {
			return err
		}
		_, y := res.Last()
		return finite("dde state", y...)
	}
	per, err := r.loop("dde.Solve", 10, nil, func() (float64, error) { return one(solve()) })
	if err != nil {
		return err
	}
	r.med("dde.solve_ms", per)
	mb, _, err := r.allocs(solve)
	r.put("dde.solve_alloc_mb", mb, 1)
	return err
}

// probeCriticalDelay times E19's analysis: linearize the smooth law at
// its equilibrium, then the closed-form Hopf point.
func probeCriticalDelay(r *replay) error {
	law, err := smoothLaw()
	if err != nil {
		return err
	}
	per, err := r.loop("stability.CriticalDelay", 1000, nil, func() (float64, error) {
		lin, err := stability.Linearize(law, refMu, 0, 60)
		if err != nil {
			return 0, err
		}
		tau, _, err := stability.CriticalDelay(lin.A, lin.B)
		r.sink += tau
		return 1, err
	})
	if err != nil {
		return err
	}
	r.med("stability.critical_delay_us", per)
	return finite("critical delay", r.sink)
}

func sum(xs []int64) float64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return float64(s)
}

// probeDES times E3's packet simulation per packet served; each call
// is a fresh simulator with its own seed, and no warm-up is discarded
// so every served packet counts.
func probeDES(r *replay) error {
	var sim *des.Sim
	prep := func(i int) (err error) {
		sim, err = des.New(e3DES(sweep.CellSeed(r.probeSeed(), i)))
		return err
	}
	run := func() (float64, error) {
		res, err := sim.Run(400, 0)
		if err != nil {
			return 0, err
		}
		if n := sum(res.Delivered); n > 0 {
			return n, nil
		}
		return 0, fmt.Errorf("no packets delivered")
	}
	per, err := r.loop("des.Sim.Run", 20, prep, run)
	if err != nil {
		return err
	}
	r.med("des.packet_ns", per)
	if err := prep(20); err != nil {
		return err
	}
	mb, _, err := r.allocs(func() error { _, err := run(); return err })
	r.put("des.run_alloc_mb", mb, 1)
	return err
}

// probeTahoe runs E21's RTT-ratio-8 bottleneck for 300 s instead of
// 600 s.
func probeTahoe(r *replay) error {
	var sim *des.TahoeSim
	prep := func(i int) (err error) {
		sim, err = des.NewTahoe(e21Tahoe(sweep.CellSeed(r.probeSeed(), i)))
		return err
	}
	per, err := r.loop("des.TahoeSim.Run", 10, prep, func() (float64, error) {
		res, err := sim.Run(300, 50)
		if err == nil && sum(res.Acked) == 0 {
			err = fmt.Errorf("no packets acked")
		}
		return 1, err
	})
	r.med("des.tahoe_run_ms", per)
	return err
}

// probeTandem runs E16's tandem network for 1000 s instead of 4000 s.
func probeTandem(r *replay) error {
	var sim *des.TandemSim
	prep := func(i int) (err error) {
		sim, err = des.NewTandem(e16Tandem(sweep.CellSeed(r.probeSeed(), i)))
		return err
	}
	per, err := r.loop("des.TandemSim.Run", 10, prep, func() (float64, error) {
		res, err := sim.Run(1000, 100)
		if err == nil && sum(res.Delivered) == 0 {
			err = fmt.Errorf("no packets delivered")
		}
		return 1, err
	})
	r.med("des.tandem_run_ms", per)
	return err
}

// probeNetsim times E26's parking lot per delivered packet over 600 s
// instead of 3000 s.
func probeNetsim(r *replay) error {
	var sim *netsim.Sim
	prep := func(i int) error {
		cfg, err := e26Lot(sweep.CellSeed(r.probeSeed(), i))
		if err != nil {
			return err
		}
		sim, err = netsim.New(cfg)
		return err
	}
	per, err := r.loop("netsim.Sim.Run", 10, prep, func() (float64, error) {
		res, err := sim.Run(600, 0)
		if err != nil {
			return 0, err
		}
		if n := sum(res.Delivered); n > 0 {
			return n, nil
		}
		return 0, fmt.Errorf("no packets delivered")
	})
	r.med("netsim.packet_ns", per)
	return err
}

// event is a minimal simulator event for the eventq probe.
type event struct {
	t   float64
	seq uint64
}

func (e event) Key() (float64, uint64) { return e.t, e.seq }

// probeEventq drains and refills a 64-deep heap whose timestamps sit
// on a 0.25 s lattice, so same-time bursts (PopBatch's case) are
// common. Each pop is checked to be in time order.
func probeEventq(r *replay) error {
	src := rng.New(r.probeSeed())
	steps := make([]float64, nsBatch) // precomputed so rng cost stays out of the span
	for i := range steps {
		steps[i] = float64(1+src.Intn(4)) * 0.25
	}
	var q eventq.Q[event]
	var seq uint64
	for i := 0; i < 64; i++ {
		q.Push(event{t: float64(src.Intn(8)) * 0.25, seq: seq})
		seq++
	}
	batch := make([]event, 0, 64)
	last := math.Inf(-1)
	per, err := r.loop("eventq.Q.PopBatch", 128, nil, func() (float64, error) {
		pairs := 0
		for pairs < nsBatch {
			batch = q.PopBatch(batch[:0])
			for _, e := range batch {
				if e.t < last {
					return 0, fmt.Errorf("popped t=%v after t=%v", e.t, last)
				}
				last = e.t
				q.Push(event{t: e.t + steps[int(seq)%nsBatch], seq: seq})
				seq++
			}
			pairs += len(batch)
		}
		return float64(pairs), nil
	})
	if err != nil {
		return err
	}
	r.med("eventq.push_pop_ns", per)
	return nil
}

func probeExp(r *replay) error {
	src := rng.New(r.probeSeed())
	per, err := r.loop("rng.Source.Exp", 256, nil, func() (float64, error) {
		var s float64
		for i := 0; i < nsBatch; i++ {
			s += src.Exp(1)
		}
		r.sink += s
		return nsBatch, nil
	})
	if err != nil {
		return err
	}
	r.med("rng.exp_ns", per)
	return finite("rng.Exp sum", r.sink)
}

// probeParallelFor times dispatch and join alone: a parallel.For over
// the Fokker-Planck grid whose body only marks its block as visited.
func probeParallelFor(r *replay) error {
	const n = 150 * 120
	size, count := parallel.Blocks(n)
	cover := make([]int, count)
	per, err := r.loop("parallel.For", 2000, nil, func() (float64, error) {
		parallel.For(n, 2, func(lo, hi int) { cover[lo/size] = hi - lo })
		return 1, nil
	})
	if err != nil {
		return err
	}
	r.med("parallel.for_ns", per)
	covered := 0
	for _, c := range cover {
		covered += c
	}
	if covered != n {
		return fmt.Errorf("parallel.For covered %d of %d indices", covered, n)
	}
	return nil
}

// probeSweepMap times sweep.Map over six no-op cells, E30's grid size.
func probeSweepMap(r *replay) error {
	const cells = 6
	per, err := r.loop("sweep.Map", 1000, nil, func() (float64, error) {
		out, err := sweep.Map(cells, 2, func(i int) (int, error) { return i, nil })
		for i, v := range out {
			if v != i {
				return 0, fmt.Errorf("sweep.Map put cell %d's result at %d", v, i)
			}
		}
		return cells, err
	})
	if err != nil {
		return err
	}
	r.med("sweep.map_cell_us", per)
	return nil
}

func probeSDEW2(r *replay) error {
	e, err := sde.New(e9SDE(40000, 2, r.probeSeed()))
	if err != nil {
		return err
	}
	per, err := r.loop("sde.Ensemble.Step/w2", 300, nil, func() (float64, error) { e.Step(); return 1, nil })
	if err != nil {
		return err
	}
	r.med("sde.step_w2_us.p50", per)
	m := e.Moments()
	return finite("sde moments", m.MeanQ, m.VarQ, m.MeanLam)
}

func probeFPW2(r *replay) error {
	s, err := newE9FP(false, 2)
	if err != nil {
		return err
	}
	dt := s.MaxStableDt()
	per, err := r.loop("fokkerplanck.Solver.Step/w2", 300, nil, func() (float64, error) { return one(s.Step(dt)) })
	if err != nil {
		return err
	}
	r.med("fokkerplanck.step_w2_us.p50", per)
	return checkFPMass(s)
}

func probeNetmfW2(r *replay) error {
	cfg, err := e30Lot(2)
	if err != nil {
		return err
	}
	per, err := stepNetmf(r, "netmf.Engine.Step/w2", cfg, 300)
	r.med("netmf.step_w2_us.p50", per)
	return err
}
