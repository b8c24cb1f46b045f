package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"fpcc/internal/des"
	"fpcc/internal/experiments"
	"fpcc/internal/fluid"
	"fpcc/internal/meanfield"
	"fpcc/internal/netmf"
	"fpcc/internal/netsim"
	"fpcc/internal/obs"
	"fpcc/internal/sde"
	"fpcc/internal/stability"
	"fpcc/internal/stats"
)

// workload is one benchmark input: a fixed selection of registry
// experiments run end to end, the inner-worker grant they run at (the
// suite itself always runs one experiment at a time), and the engines
// they build.
type workload struct {
	name  string
	why   string
	ids   []string
	inner int
	// setup builds the workload's engines through their public
	// constructors at the experiments' configurations; setup_s times
	// it.
	setup func(seed uint64) error
}

// workloads are chosen so each stresses layers the others leave idle;
// README.md gives the profile shares behind each choice.
var workloads = []workload{
	{
		name:  "fp-vs-mc",
		why:   "the paper's central validation (Eq. 14 vs Monte-Carlo): SDE ensemble and Fokker-Planck sweeps, no DES, fluid or mean-field",
		ids:   []string{"E9", "E14", "E17"},
		inner: 1, setup: setupFPvsMC,
	},
	{
		name:  "kinetic-1e6",
		why:   "mean-field and netmf engines at 10^6 sources: rate-density transport, Crank-Nicolson and particle kernels, no Fokker-Planck or DES",
		ids:   []string{"E28", "E30", "E32", "E34"},
		inner: 1, setup: setupKinetic,
	},
	{
		name:  "fluid-dde",
		why:   "deterministic fluid and delay models: dde.Solve dominates and allocation/GC work shows here and nowhere else",
		ids:   []string{"E4", "E5", "E6", "E7", "E8", "E19", "E23", "E24"},
		inner: 1, setup: setupFluidDDE,
	},
	{
		name:  "packet-des",
		why:   "per-event packet simulation: des/netsim event loops, eventq and rng.Exp, no PDE or ODE kernels",
		ids:   []string{"E3", "E13", "E16", "E18", "E20", "E21", "E25", "E26", "E27", "E33"},
		inner: 1, setup: setupPacketDES,
	},
	{
		// E9 is left out: at two inner workers its per-step joins made
		// the pass time bimodal on a shared host (README.md, Noise).
		name:  "sharded-2",
		why:   "E30's 10^6-source parking-lot sweep at two inner workers: sweep and parallel dispatch and join off the caller goroutine",
		ids:   []string{"E30"},
		inner: 2, setup: setupSharded,
	},
}

// procs is the GOMAXPROCS the workload's process runs at: its inner
// grant, capped by the machine. The serial workloads thus run on one
// P, where the engines that default to GOMAXPROCS workers (the density
// and netmf steps) run inline and no timing depends on whether a
// second CPU happens to be free.
func (w workload) procs() int { return max(1, min(w.inner, runtime.NumCPU())) }

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func setupFPvsMC(seed uint64) error {
	for _, secondOrder := range []bool{false, true} {
		if _, err := newE9FP(secondOrder, 1); err != nil {
			return err
		}
	}
	if _, err := newE17FP(); err != nil {
		return err
	}
	for _, n := range []int{40000, 20000} {
		if _, err := sde.New(e9SDE(n, 1, seed)); err != nil {
			return err
		}
	}
	return nil
}

func setupKinetic(seed uint64) error {
	ref := mfScaled(10000)
	ref.SecondOrder = true
	if _, err := meanfield.NewDensity(ref); err != nil {
		return err
	}
	if _, err := meanfield.NewParticles(mfScaled(10000), seed, 1); err != nil {
		return err
	}
	if _, err := meanfield.NewDensity(e32Cell()); err != nil {
		return err
	}
	lot, err := e30Lot(1)
	if err != nil {
		return err
	}
	if _, err := netmf.New(lot); err != nil {
		return err
	}
	ch, err := e34Churn(1)
	if err != nil {
		return err
	}
	_, err = netmf.New(ch)
	return err
}

// setupFluidDDE is the analytic set-up of E5, E19 and E24: the share
// prediction, the linearizations and their Hopf points. The fluid and
// delay models themselves are plain values with no constructor.
func setupFluidDDE(uint64) error {
	law, err := smoothLaw()
	if err != nil {
		return err
	}
	lin, err := stability.Linearize(law, refMu, 0, 60)
	if err != nil {
		return err
	}
	if _, _, err := stability.CriticalDelay(lin.A, lin.B); err != nil {
		return err
	}
	for _, n := range []int{1, 2, 4, 8} {
		ml, err := stability.MultiSourceLinearize(law, refMu, n, 0, 400)
		if err != nil {
			return err
		}
		if _, _, err := stability.CriticalDelay(ml.A, ml.B); err != nil {
			return err
		}
		if n >= 2 {
			if _, err := stability.DifferenceModeRate(law, refMu, n, 0, 400); err != nil {
				return err
			}
		}
	}
	if _, err := fluid.PredictedShares(e5Laws); err != nil {
		return err
	}
	m := e5Model()
	return m.Validate()
}

func setupPacketDES(seed uint64) error {
	if _, err := des.New(e3DES(seed)); err != nil {
		return err
	}
	if _, err := des.NewTahoe(e21Tahoe(seed)); err != nil {
		return err
	}
	if _, err := des.NewTandem(e16Tandem(seed)); err != nil {
		return err
	}
	cfg, err := e26Lot(seed)
	if err != nil {
		return err
	}
	_, err = netsim.New(cfg)
	return err
}

func setupSharded(uint64) error {
	lot, err := e30Lot(2)
	if err != nil {
		return err
	}
	_, err = netmf.New(lot)
	return err
}

// setupPerBatch is how many set-up samples are timed before each pass
// and after the last one, so at least 60 in a run, spread over it.
const setupPerBatch = 20

// setupSampleMin is the shortest set-up sample: a sample repeats the
// build until this much time has passed, so the 10 µs builds of
// fluid-dde are timed as well as the millisecond ones of fp-vs-mc.
const setupSampleMin = time.Millisecond

// timeSetups times n samples of building the workload's engines and
// returns each sample's seconds per build.
func timeSetups(w workload, seed uint64, n int) ([]float64, error) {
	ds := make([]float64, n)
	for i := range ds {
		runtime.GC() // no sample pays for collecting an earlier one's engines
		builds := 0
		start := time.Now()
		for builds == 0 || time.Since(start) < setupSampleMin {
			if err := w.setup(seed); err != nil {
				return nil, fmt.Errorf("%s set-up: %w", w.name, err)
			}
			builds++
		}
		ds[i] = time.Since(start).Seconds() / float64(builds)
	}
	return ds, nil
}

// pass is one end-to-end run of a workload's experiments: for each,
// RunSuite, then its CSV rendered and hashed against the manifest. The
// results file keeps every pass.
type pass struct {
	WallS    float64            `json:"wall_s"`
	CPUS     float64            `json:"cpu_s"`
	WallRel  float64            `json:"wall_rel"` // Σ wall ÷ speed probe, per experiment
	CPURel   float64            `json:"cpu_rel"`
	AllocMB  float64            `json:"alloc_mb"`
	ProbeS   []float64          `json:"speed_probe_s"`     // before the first experiment and after each one
	Elapsed  map[string]float64 `json:"experiment_wall_s"` // Report.Elapsed
	failures []string           // experiment runs that errored, alarmed or mismatched
}

// runPass runs the experiments one RunSuite call each. Before each one,
// outside the timed region, the previous one's garbage is collected and
// returned to the OS. So every experiment starts from the same heap,
// and the peak RSS is the largest single experiment's, not an accident
// of when an earlier experiment's memory was returned: fluid-dde's
// E4 and E5 allocate hundreds of MB each. Each experiment's wall and
// CPU time also count in units of the mean of the speed probes taken
// just before and just after it.
func runPass(w workload, want map[string]string) pass {
	p := pass{Elapsed: make(map[string]float64, len(w.ids)), ProbeS: []float64{speedProbe()}}
	for _, id := range w.ids {
		debug.FreeOSMemory()
		before := obs.ReadResources()
		start := time.Now()
		suite, failures := runChecked([]string{id}, want)
		wall := time.Since(start).Seconds()
		res := obs.ReadResources().Sub(before)
		p.ProbeS = append(p.ProbeS, speedProbe())
		speed := (p.ProbeS[len(p.ProbeS)-2] + p.ProbeS[len(p.ProbeS)-1]) / 2
		p.WallS += wall
		p.CPUS += res.CPUSeconds
		p.WallRel += wall / speed
		p.CPURel += res.CPUSeconds / speed
		p.AllocMB += float64(res.AllocBytes) / (1 << 20)
		p.failures = append(p.failures, failures...)
		if suite != nil {
			for _, r := range suite.Reports {
				p.Elapsed[r.Experiment.ID] = r.Elapsed.Seconds()
			}
		}
	}
	return p
}

// runChecked runs the experiments one at a time and checks their
// outputs. It returns one failure line per experiment that errored,
// alarmed or does not match the manifest. The suite stops at its
// first error, so then no output was checked and every experiment
// counts as failed.
func runChecked(ids []string, want map[string]string) (*experiments.Suite, []string) {
	suite, err := experiments.RunSuite(experiments.SuiteConfig{Filter: idFilter(ids), Workers: 1})
	if err != nil {
		bad := make([]string, len(ids))
		for i, id := range ids {
			bad[i] = fmt.Sprintf("%s: not checked: %v", id, err)
		}
		return nil, bad
	}
	return suite, checkOutputs(suite.Reports, want)
}

// minPasses is the fewest passes a run makes, even when two passes do
// not fit the budget: one pass would leave no second sample to show
// that the first one was disturbed.
const minPasses = 2

// measureEndToEnd runs a batch of set-up samples and a pass, until the
// next batch and pass would end past the budget, then one more batch
// of set-up samples, and records the medians (setup_s: the fastest
// sample).
func measureEndToEnd(w workload, want map[string]string, seed uint64, budget float64, res *workloadResult) error {
	var walls, cpus, wallRels, cpuRels, allocs, speeds, setups, rounds []float64
	perExp := map[string][]float64{}
	setupBatch := func() error {
		ds, err := timeSetups(w, seed, setupPerBatch)
		res.SetupLog = append(res.SetupLog, ds)
		setups = append(setups, ds...)
		return err
	}
	start := time.Now()
	for len(walls) < minPasses || time.Since(start).Seconds()+stats.Quantile(rounds, 0.5) <= budget {
		roundStart := time.Now()
		if err := setupBatch(); err != nil {
			return err
		}
		p := runPass(w, want)
		res.PassLog = append(res.PassLog, p)
		walls = append(walls, p.WallS)
		cpus = append(cpus, p.CPUS)
		wallRels = append(wallRels, p.WallRel)
		cpuRels = append(cpuRels, p.CPURel)
		allocs = append(allocs, p.AllocMB)
		speeds = append(speeds, p.ProbeS...)
		for id, s := range p.Elapsed {
			perExp[id] = append(perExp[id], s)
		}
		res.Attempted += len(w.ids)
		res.Failed += len(p.failures)
		res.Failures = append(res.Failures, p.failures...)
		rounds = append(rounds, time.Since(roundStart).Seconds())
	}
	if err := setupBatch(); err != nil {
		return err
	}
	n := len(walls)
	res.Passes = n
	res.EndToEnd = append(res.EndToEnd,
		newMetric("wall_rel", stats.Quantile(wallRels, 0.5), n),
		newMetric("cpu_rel", stats.Quantile(cpuRels, 0.5), n),
		newMetric("alloc_mb", stats.Quantile(allocs, 0.5), n),
		newMetric("setup_s", slices.Min(setups), len(setups)),
	)
	res.Unscaled = []metric{
		{Name: "wall_s", Unit: "s", Value: stats.Quantile(walls, 0.5), N: n},
		{Name: "cpu_s", Unit: "s", Value: stats.Quantile(cpus, 0.5), N: n},
		{Name: "speed_probe_ms", Unit: "ms", Value: 1e3 * stats.Quantile(speeds, 0.5), N: len(speeds)},
	}
	for _, id := range w.ids {
		if s := perExp[id]; len(s) > 0 {
			res.Attribution = append(res.Attribution, metric{Name: "experiments." + id + ".wall_s", Unit: "s", Value: stats.Quantile(s, 0.5), N: len(s)})
		}
	}
	return nil
}
