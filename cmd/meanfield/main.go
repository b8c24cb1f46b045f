// Command meanfield runs the kinetic (population-density) engine on a
// canned scenario at any population size: stepping costs
// O(nodes + classes × bins), independent of N.
//
// -topology selects the scenario's queue network:
//
//   - one-node (the default): one shared bottleneck, a fast-RTT class
//     and (when -slow-frac > 0) a slow-RTT class whose probe gain is
//     C0/rtt-ratio and whose feedback arrives rtt-ratio times later.
//     -mode particle runs the same scenario as a finite-N SoA
//     Monte-Carlo cross-check (practical up to ~10⁵ sources). With
//     -attack-frac > 0 an unresponsive CBR class blasting that
//     fraction of μ joins the mix.
//   - parking-lot: the fairness benchmark, one long class over a chain
//     of -hops bottlenecks and one cross class per hop.
//   - cross-chain: bottleneck migration, an adaptive class over two
//     hops and a constant-rate class (-cross-frac of the sources) at
//     the second.
//
// With -churn-mean > 0 the scenario becomes an open system: sessions
// are born at the Little's-law rate N/mean and live exponential (or,
// with -churn-pareto, heavy-tailed Pareto) lifetimes, evolved as
// birth–death source terms. On one-node every compliant class opens;
// on a network the multi-hop class does (the E34 turnover scenario).
// A flag the chosen topology does not read is rejected.
//
// Examples:
//
//	meanfield -n 1000000 -slow-frac 0.5 -rtt-ratio 4
//	meanfield -mode particle -n 10000 -seed 7 -workers 8
//	meanfield -n 1000000 -csv trace.csv -every 0.1
//	meanfield -n 1000000 -churn-mean 4 -churn-pareto -attack-frac 0.3
//	meanfield -topology parking-lot -hops 5 -rtt-stretch 4 -csv trace.csv
//	meanfield -topology cross-chain -cross-frac 0.4
//	meanfield -topology parking-lot -hops 2 -churn-mean 4 -churn-pareto
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"fpcc"
)

// flags holds the command line.
type flags struct {
	topology, mode, csv                              *string
	n, hops, bins, workers                           *int
	slowFrac, rttRatio, delay, rttStretch, crossFrac *float64
	c0, c1, qhat0, share, sigma, lmax, dt            *float64
	horizon, warmup, every, churnMean, attackFrac    *float64
	firstOrder, churnPareto                          *bool
	seed                                             *uint64
}

func bind(fs *flag.FlagSet) *flags {
	return &flags{
		topology:   fs.String("topology", "one-node", "queue network: one-node, parking-lot or cross-chain"),
		n:          fs.Int("n", 1_000_000, "compliant sources in total (one-node, cross-chain) or per class (parking-lot); one-node queues and qhat0 are per compliant source"),
		slowFrac:   fs.Float64("slow-frac", 0.5, "fraction of sources in the slow-RTT class (0 = single class; one-node)"),
		rttRatio:   fs.Float64("rtt-ratio", 4, "slow-class RTT / fast-class RTT (one-node)"),
		hops:       fs.Int("hops", 3, "bottleneck hops (parking-lot)"),
		rttStretch: fs.Float64("rtt-stretch", 1, "extra multiplier on the long class's hop-proportional RTT (parking-lot)"),
		crossFrac:  fs.Float64("cross-frac", 0.3, "fraction of sources in the constant-rate cross class (cross-chain)"),
		delay:      fs.Float64("delay", 0.2, "feedback delay (s) of the fast class (one-node; slow gets delay*rtt-ratio), the cross classes (parking-lot) or the adaptive class (cross-chain)"),
		c0:         fs.Float64("c0", 0.5, "per-source additive increase (the one-node slow class gets c0/rtt-ratio)"),
		c1:         fs.Float64("c1", 0.5, "multiplicative decrease constant"),
		qhat0:      fs.Float64("qhat0", 2, "per-source queue target (one-node total target = qhat0*n)"),
		share:      fs.Float64("share", 1, "per-source service share (pk/s); one-node μ = share*n"),
		sigma:      fs.Float64("sigma", 0.3, "intrinsic per-source rate noise σ"),
		lmax:       fs.Float64("lmax", 6, "rate-domain upper bound (per source, in share units)"),
		bins:       fs.Int("bins", 192, "rate-grid resolution (density mode)"),
		dt:         fs.Float64("dt", 0.005, "time step"),
		horizon:    fs.Float64("t", 120, "simulation horizon (s)"),
		warmup:     fs.Float64("warmup", 60, "transient discarded before averaging (s)"),
		mode:       fs.String("mode", "density", "engine: density, or particle (one-node)"),
		firstOrder: fs.Bool("first-order", false, "use first-order upwind transport instead of MUSCL (density mode)"),
		seed:       fs.Uint64("seed", 1, "rng seed (particle mode)"),
		workers:    fs.Int("workers", 0, "particle chunk workers (0 = GOMAXPROCS); never affects results"),
		csv:        fs.String("csv", "", "write a trace CSV here ('-' = stdout)"),
		every:      fs.Float64("every", 0.5, "trace sample period (s)"),

		churnMean:   fs.Float64("churn-mean", 0, "mean session lifetime (s); > 0 opens every compliant class (one-node) or the multi-hop class (networks) with Little's-law arrivals N/mean (density mode only)"),
		churnPareto: fs.Bool("churn-pareto", false, "heavy-tailed Pareto(α=1.5) lifetimes instead of exponential"),
		attackFrac:  fs.Float64("attack-frac", 0, "offered load of an unresponsive CBR attacker class, as a fraction of μ (0 = honest only; one-node, density mode only)"),
	}
}

// only names the one topology that reads each topology-specific flag.
var only = map[string]string{
	"slow-frac": "one-node", "rtt-ratio": "one-node", "attack-frac": "one-node",
	"seed": "one-node", "workers": "one-node",
	"hops": "parking-lot", "rtt-stretch": "parking-lot",
	"cross-frac": "cross-chain",
}

func main() {
	log.SetFlags(0)
	f := bind(flag.CommandLine)
	obsCLI := fpcc.BindObsFlags(flag.CommandLine)
	flag.Parse()
	// Errors from the fpcc packages already carry their package's
	// name and print as they are; only the messages this command
	// writes itself are prefixed with its name.
	if err := obsCLI.Setup(); err != nil {
		log.Fatal(err)
	}
	defer obsCLI.Close()

	one, net, err := f.build(flag.CommandLine)
	if err != nil {
		log.Fatal(err)
	}
	var trace io.Writer
	switch *f.csv {
	case "":
	case "-":
		trace = os.Stdout
	default:
		file, err := os.Create(*f.csv)
		if err != nil {
			log.Fatalf("meanfield: %v", err)
		}
		defer file.Close()
		trace = file
	}
	if *f.topology == "one-node" {
		err = f.runOneNode(one, obsCLI.Recorder(*f.mode), trace)
	} else {
		err = f.runNetwork(net, obsCLI.Recorder("netmf"), trace)
	}
	if err != nil {
		obsCLI.Fatal("meanfield", err)
	}
}

// build checks the flags fs set against the topology and mode, and
// builds the scenario: one for -topology one-node, net for the
// networks.
func (f *flags) build(fs *flag.FlagSet) (one fpcc.MeanFieldConfig, net fpcc.NetMeanFieldConfig, err error) {
	topo := *f.topology
	fs.Visit(func(fl *flag.Flag) {
		if t, ok := only[fl.Name]; ok && t != topo && err == nil {
			err = fmt.Errorf("meanfield: -%s applies only to -topology %s", fl.Name, t)
		}
	})
	switch {
	case err != nil:
		return one, net, err
	case *f.mode != "density" && *f.mode != "particle":
		return one, net, fmt.Errorf("meanfield: unknown mode %q (want density or particle)", *f.mode)
	case *f.mode == "particle" && topo != "one-node":
		return one, net, fmt.Errorf("meanfield: -mode particle runs only on -topology one-node")
	case *f.mode == "particle" && (*f.churnMean > 0 || *f.attackFrac > 0):
		return one, net, fmt.Errorf("meanfield: -churn-mean/-attack-frac are density-mode only (the particle backend is a closed, compliant population)")
	}
	var lt fpcc.ChurnLifetime
	if *f.churnMean > 0 {
		if lt, err = f.lifetime(); err != nil {
			return one, net, err
		}
	}
	switch topo {
	case "one-node":
		one, err = f.oneNode(lt)
		return one, net, err
	case "parking-lot":
		net, err = fpcc.NewNetMeanFieldParkingLot(fpcc.NetMeanFieldParkingLotConfig{
			Hops: *f.hops, N: *f.n, Share: *f.share, QHat0: *f.qhat0, C0: *f.c0, C1: *f.c1,
			Delay: *f.delay, RTTStretch: *f.rttStretch, Sigma: *f.sigma,
			LMax: *f.lmax, Bins: *f.bins, Dt: *f.dt,
		})
	case "cross-chain":
		net, err = fpcc.NewNetMeanFieldCrossChain(fpcc.NetMeanFieldCrossChainConfig{
			N: *f.n, CrossFrac: *f.crossFrac, Share: *f.share, QHat0: *f.qhat0, C0: *f.c0, C1: *f.c1,
			Delay: *f.delay, Sigma: *f.sigma, LMax: *f.lmax, Bins: *f.bins, Dt: *f.dt,
		})
	default:
		return one, net, fmt.Errorf("meanfield: unknown topology %q (want one-node, parking-lot or cross-chain)", topo)
	}
	if err != nil {
		return one, net, err
	}
	net.SecondOrder = !*f.firstOrder
	if lt != nil {
		// Both canned networks put the multi-hop adaptive class first;
		// the cross traffic stays closed.
		open(net.Classes[:1], lt, *f.churnMean)
	}
	return one, net, nil
}

// lifetime returns the session lifetime -churn-mean and -churn-pareto
// select.
func (f *flags) lifetime() (fpcc.ChurnLifetime, error) {
	if *f.churnPareto {
		return fpcc.NewChurnPareto(1.5, *f.churnMean/3)
	}
	return fpcc.NewChurnExponential(*f.churnMean)
}

// open gives every class session churn with lifetime lt and
// Little's-law arrivals N/mean; newborns start at the class's initial
// rate blob.
func open(classes []fpcc.MeanFieldClass, lt fpcc.ChurnLifetime, mean float64) {
	for k := range classes {
		cl := &classes[k]
		cl.Churn = &fpcc.ChurnFlow{
			Arrival: float64(cl.N) / mean, Lifetime: lt,
			Lambda0: cl.Lambda0, InitStd: cl.InitStd,
		}
	}
}

// oneNode assembles the one- or two-class bottleneck scenario, opened
// by session churn when lt is non-nil and joined by an unresponsive
// attacker class when -attack-frac > 0.
func (f *flags) oneNode(lt fpcc.ChurnLifetime) (fpcc.MeanFieldConfig, error) {
	n, share := *f.n, *f.share
	if *f.slowFrac < 0 || *f.slowFrac >= 1 {
		return fpcc.MeanFieldConfig{}, fmt.Errorf("meanfield: slow-frac %v outside [0, 1)", *f.slowFrac)
	}
	if *f.rttRatio < 1 {
		return fpcc.MeanFieldConfig{}, fmt.Errorf("meanfield: rtt-ratio %v below 1", *f.rttRatio)
	}
	qhat := *f.qhat0 * float64(n)
	nSlow := int(*f.slowFrac * float64(n))
	fastLaw, err := fpcc.NewAIMD(*f.c0*share, *f.c1, qhat)
	if err != nil {
		return fpcc.MeanFieldConfig{}, err
	}
	classes := fpcc.MeanFieldClasses(fpcc.MeanFieldClass{
		Name: "fast", Law: fastLaw, N: n - nSlow, Delay: *f.delay,
		Lambda0: share, InitStd: 0.3 * share, SigmaL: *f.sigma * share,
	})
	if nSlow > 0 {
		slowLaw, err := fpcc.NewAIMD(*f.c0*share / *f.rttRatio, *f.c1, qhat)
		if err != nil {
			return fpcc.MeanFieldConfig{}, err
		}
		classes = append(classes, fpcc.MeanFieldClass{
			Name: "slow", Law: slowLaw, N: nSlow, Delay: *f.delay * *f.rttRatio,
			Lambda0: share, InitStd: 0.3 * share, SigmaL: *f.sigma * share,
		})
	}
	if lt != nil {
		open(classes, lt, *f.churnMean)
	}
	if *f.attackFrac > 0 {
		// A fifth of the population blasts attackFrac·μ between them;
		// the per-source rate must fit the λ-grid.
		nAtt := max(n/5, 1)
		lamA := *f.attackFrac * share * float64(n) / float64(nAtt)
		if lamA > *f.lmax*share {
			return fpcc.MeanFieldConfig{}, fmt.Errorf(
				"meanfield: attack-frac %v needs per-source rate %.3g beyond the λ-domain %.3g; raise -lmax",
				*f.attackFrac, lamA, *f.lmax*share)
		}
		classes = append(classes, fpcc.MeanFieldClass{
			Name: "attack", Law: fpcc.UnresponsiveLaw{}, N: nAtt,
			Lambda0: lamA, InitStd: 0.1 * share, SigmaL: 0.05 * share,
		})
	}
	return fpcc.MeanFieldConfig{
		Classes:     classes,
		Mu:          share * float64(n),
		LMax:        *f.lmax * share,
		Bins:        *f.bins,
		Dt:          *f.dt,
		Q0:          qhat,
		SecondOrder: !*f.firstOrder,
	}, nil
}

// runOneNode steps the one-node scenario on the -mode backend and
// prints its steady state. Queues are reported per compliant source
// (-n), the basis of the target qhat0, so attackers do not dilute
// them.
func (f *flags) runOneNode(cfg fpcc.MeanFieldConfig, rec *fpcc.ObsRecorder, trace io.Writer) error {
	cfg.Obs = rec
	var eng fpcc.MeanFieldStepper
	var err error
	if *f.mode == "particle" {
		if cfg.TotalSources() > 200_000 {
			return fmt.Errorf("meanfield: %d sources is beyond the particle mode's practical range; use -mode density", cfg.TotalSources())
		}
		eng, err = fpcc.NewMeanFieldParticles(cfg, *f.seed, *f.workers)
	} else {
		eng, err = fpcc.NewMeanField(cfg)
	}
	if err != nil {
		return err
	}

	perSource := float64(*f.n)
	var meanQ float64
	var rates []float64
	err = f.run(rec, trace, eng, cfg.TotalSources(), cfg.ClassName, []string{"queue_per_source"},
		func(int) float64 { return eng.Queue() / perSource },
		func(onStep func()) (err error) {
			meanQ, rates, err = fpcc.MeanFieldSteadyStats(eng, *f.warmup, *f.horizon, onStep)
			return err
		})
	if err != nil {
		return err
	}
	fmt.Printf("  queue per source  %.4f (target %g)\n", meanQ/perSource, *f.qhat0)
	for k := range cfg.Classes {
		fmt.Printf("  %-6s mean rate  %.4f (N=%d, share %g)\n",
			cfg.ClassName(k), rates[k], cfg.Classes[k].N, *f.share)
	}
	return nil
}

// runNetwork steps a network scenario and prints its per-node and
// per-class steady state. Queues are reported per source of the whole
// population.
func (f *flags) runNetwork(cfg fpcc.NetMeanFieldConfig, rec *fpcc.ObsRecorder, trace io.Writer) error {
	cfg.Obs = rec
	setup := rec.Span("setup")
	eng, err := fpcc.NewNetMeanField(cfg)
	if err != nil {
		return err
	}
	setup.End()

	perSource := float64(cfg.TotalSources())
	columns := make([]string, len(cfg.Topology.Nodes))
	for j := range columns {
		columns[j] = "q_" + cfg.Topology.NodeName(j)
	}
	var meanQ, rates []float64
	err = f.run(rec, trace, eng, cfg.TotalSources(), cfg.ClassName, columns,
		func(j int) float64 { return eng.Queue(j) / perSource },
		func(onStep func()) (err error) {
			meanQ, rates, err = fpcc.NetMeanFieldSteadyStats(eng, *f.warmup, *f.horizon, onStep)
			return err
		})
	if err != nil {
		return err
	}
	for j := range cfg.Topology.Nodes {
		fmt.Printf("  %-6s mean queue/source  %.4f (μ %g)\n",
			cfg.Topology.NodeName(j), meanQ[j]/perSource, cfg.Topology.Nodes[j].Mu)
	}
	for k := range cfg.Classes {
		fmt.Printf("  %-6s mean rate  %.4f (N=%d, %d hops)\n",
			cfg.ClassName(k), rates[k], cfg.Classes[k].N, len(cfg.Classes[k].Route))
	}
	if *f.churnMean > 0 {
		fmt.Printf("  %-6s live population  %.0f (Little's law %.0f)\n",
			cfg.ClassName(0), eng.ClassPopulation(0), cfg.Classes[0].Churn.MeanPopulation())
	}
	return nil
}

// run times steady, the topology's window loop over eng, and prints
// the run line and the steady-state heading. After every step it
// counts the step and, with a trace writer w, writes a CSV row every
// -every simulated seconds: the time, each queue column (queue(j)),
// then each class's mean rate.
func (f *flags) run(rec *fpcc.ObsRecorder, w io.Writer, eng interface {
	Time() float64
	NumClasses() int
	ClassMeanRate(k int) float64
}, sources int, className func(k int) string, columns []string, queue func(j int) float64,
	steady func(onStep func()) error) error {
	if w != nil {
		fmt.Fprint(w, "t")
		for _, c := range columns {
			fmt.Fprintf(w, ",%s", c)
		}
		for k := range eng.NumClasses() {
			fmt.Fprintf(w, ",rate_%s", className(k))
		}
		fmt.Fprintln(w)
	}
	start := time.Now()
	var steps int
	next := 0.0
	stepSpan := rec.Span("step")
	err := steady(func() {
		steps++
		if w == nil || eng.Time() < next {
			return
		}
		fmt.Fprintf(w, "%g", eng.Time())
		for j := range columns {
			fmt.Fprintf(w, ",%g", queue(j))
		}
		for k := range eng.NumClasses() {
			fmt.Fprintf(w, ",%g", eng.ClassMeanRate(k))
		}
		fmt.Fprintln(w)
		next += *f.every
	})
	stepSpan.End()
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Printf("topology=%s mode=%s sources=%d classes=%d steps=%d wall=%v (%.3g µs/step)\n",
		*f.topology, *f.mode, sources, eng.NumClasses(), steps, elapsed.Round(time.Millisecond),
		float64(elapsed.Microseconds())/float64(steps))
	fmt.Printf("steady state over [%g, %g]:\n", *f.warmup, *f.horizon)
	return nil
}
