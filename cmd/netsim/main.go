// Command netsim runs the arbitrary-topology packet network
// simulator on a canned topology, either as a single run (printing
// per-flow and per-node tables) or as a parallel parameter sweep
// (writing per-cell aggregates as CSV or JSON).
//
// Topologies:
//
//	parking-lot   one long flow over -hops identical bottlenecks,
//	              one short cross flow per hop
//	cross-chain   two hops in series (-mu, -mu2), one adaptive flow,
//	              constant cross traffic -cross at the second hop
//
// Examples:
//
//	netsim -topology parking-lot -hops 3 -mu 40 -t 1000
//	netsim -topology cross-chain -mu 40 -mu2 60 -cross 30
//	netsim -topology cross-chain -sweep 'cross=0,10,20,30,40' -csv -
//	netsim -sweep 'c0=2,4,8;delay=0.01,0.02,0.04' -json out.json -workers 8
//
// With -churn-mean > 0 a single run (not a sweep) is opened: an extra
// session class cloning the long flow's template arrives as a Poisson
// process at -churn-arrival flows/s, lives exponential (or, with
// -churn-pareto, heavy-tailed Pareto) lifetimes, and is reported as a
// per-class aggregate under the per-flow table:
//
//	netsim -topology parking-lot -churn-mean 40 -churn-arrival 0.2 -churn-n0 8
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"fpcc"
)

// params carries every knob a sweep axis may override.
type params struct {
	hops             int
	mu, mu2          float64
	delay            float64
	c0, c1, qHat     float64
	cross            float64
	buffer           int
	lambda0, minRate float64
}

// buildConfig realizes a topology from the knobs.
func buildConfig(topology string, p params, seed uint64) (fpcc.NetConfig, error) {
	law, err := fpcc.NewAIMD(p.c0, p.c1, p.qHat)
	if err != nil {
		return fpcc.NetConfig{}, err
	}
	switch topology {
	case "parking-lot":
		return fpcc.NewParkingLot(fpcc.ParkingLotConfig{
			Hops: p.hops, Mu: p.mu, Delay: p.delay, Law: law,
			Lambda0: p.lambda0, MinRate: p.minRate, Buffer: p.buffer, Seed: seed,
		})
	case "cross-chain":
		return fpcc.NewCrossChain(fpcc.CrossChainConfig{
			Mu1: p.mu, Mu2: p.mu2, Delay: p.delay, Law: law,
			Lambda0: p.lambda0, MinRate: p.minRate, CrossRate: p.cross,
			Buffer: p.buffer, Seed: seed,
		})
	default:
		return fpcc.NetConfig{}, fmt.Errorf("netsim: unknown topology %q (want parking-lot or cross-chain)", topology)
	}
}

// set applies one sweep value to the named knob.
func (p *params) set(name string, v float64) error {
	switch name {
	case "hops":
		p.hops = int(v)
	case "mu":
		p.mu = v
	case "mu2":
		p.mu2 = v
	case "delay":
		p.delay = v
	case "c0":
		p.c0 = v
	case "c1":
		p.c1 = v
	case "qhat":
		p.qHat = v
	case "cross":
		p.cross = v
	case "buffer":
		p.buffer = int(v)
	case "lambda0":
		p.lambda0 = v
	default:
		return fmt.Errorf("unknown sweep parameter %q", name)
	}
	return nil
}

// axesFor lists the sweep axes each topology actually reads; an axis
// outside the list would sweep identical cells, so it is rejected.
var axesFor = map[string][]string{
	"parking-lot": {"hops", "mu", "delay", "c0", "c1", "qhat", "buffer", "lambda0"},
	"cross-chain": {"mu", "mu2", "delay", "cross", "c0", "c1", "qhat", "buffer", "lambda0"},
}

// checkAxis rejects a sweep axis the chosen topology ignores.
func checkAxis(topology, name string) error {
	allowed, ok := axesFor[topology]
	if !ok {
		return fmt.Errorf("unknown topology %q (want parking-lot or cross-chain)", topology)
	}
	for _, a := range allowed {
		if a == name {
			return nil
		}
	}
	return fmt.Errorf("sweep axis %q has no effect on topology %s (supported: %s)",
		name, topology, strings.Join(allowed, ", "))
}

// parseSweep parses 'a=1,2,3;b=4,5' into sweep axes.
func parseSweep(spec string) ([]fpcc.SweepParam, error) {
	var axes []fpcc.SweepParam
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, list, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad sweep axis %q (want name=v1,v2,...)", part)
		}
		var vals []float64
		for _, f := range strings.Split(list, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, fmt.Errorf("bad sweep value in %q: %v", part, err)
			}
			vals = append(vals, v)
		}
		axes = append(axes, fpcc.SweepParam{Name: strings.TrimSpace(name), Values: vals})
	}
	if len(axes) == 0 {
		return nil, fmt.Errorf("empty sweep spec")
	}
	return axes, nil
}

// output opens path for writing ("-" means stdout).
func output(path string, stdout io.Writer) (io.Writer, func() error, error) {
	if path == "-" {
		return stdout, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

// errUsage reports a flag parse error, which the flag set has already
// printed with the usage.
var errUsage = errors.New("netsim: bad flags")

func main() {
	// Errors from the fpcc packages already carry their package's
	// name and print as they are; only the messages this command
	// writes itself are prefixed with its name.
	log.SetFlags(0)
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		log.Fatal(err)
	}
}

// run parses args and runs a single simulation or a sweep, writing
// the report (or the sweep's CSV/JSON when sent to "-") to stdout and
// the flag usage and the sweep summary to stderr.
func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("netsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	topology := fs.String("topology", "cross-chain", "topology: parking-lot or cross-chain")
	hops := fs.Int("hops", 3, "parking-lot: number of bottleneck hops")
	mu := fs.Float64("mu", 40, "service rate of the (first) bottleneck (packets/s)")
	mu2 := fs.Float64("mu2", 60, "cross-chain: service rate of the second hop")
	delay := fs.Float64("delay", 0.02, "per-link propagation delay (s)")
	c0 := fs.Float64("c0", 10, "additive increase rate C0")
	c1 := fs.Float64("c1", 2, "multiplicative decrease constant C1")
	qHat := fs.Float64("qhat", 12, "target path backlog q̂")
	cross := fs.Float64("cross", 0, "cross-chain: constant cross-traffic rate at hop 2")
	buffer := fs.Int("buffer", 0, "per-node buffer in packets (0 = infinite)")
	lambda0 := fs.Float64("lambda0", 5, "initial rate of adaptive flows")
	horizon := fs.Float64("t", 1000, "simulation horizon (s)")
	warmup := fs.Float64("warmup", 100, "warmup excluded from statistics (s)")
	seed := fs.Uint64("seed", 1, "RNG seed (sweep: base seed)")
	sweepSpec := fs.String("sweep", "", "sweep grid, e.g. 'cross=0,10,20;c0=2,4' (empty = single run)")
	workers := fs.Int("workers", 0, "sweep worker count (0 = GOMAXPROCS)")
	csvPath := fs.String("csv", "", "sweep: write CSV here ('-' = stdout)")
	jsonPath := fs.String("json", "", "sweep: write JSON here ('-' = stdout)")
	churnMean := fs.Float64("churn-mean", 0, "single run: mean session lifetime (s); > 0 adds an open session class cloning the long flow")
	churnArrival := fs.Float64("churn-arrival", 0, "single run: Poisson session arrival rate (flows/s)")
	churnN0 := fs.Int("churn-n0", 0, "single run: sessions alive at t=0 (default ceil(arrival*mean))")
	churnPareto := fs.Bool("churn-pareto", false, "heavy-tailed Pareto(α=1.5) lifetimes instead of exponential")
	obsCLI := fpcc.BindObsFlags(fs, stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}
	if err := obsCLI.Setup(); err != nil {
		return err
	}
	defer func() {
		if cerr := obsCLI.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("netsim: closing observability: %w", cerr)
		}
	}()
	rec := obsCLI.Recorder("netsim")

	base := params{
		hops: *hops, mu: *mu, mu2: *mu2, delay: *delay,
		c0: *c0, c1: *c1, qHat: *qHat, cross: *cross,
		buffer: *buffer, lambda0: *lambda0, minRate: 0.5,
	}

	ch, err := buildChurn(*churnMean, *churnArrival, *churnN0, *churnPareto)
	if err != nil {
		return err
	}

	if *sweepSpec == "" {
		if *csvPath != "" || *jsonPath != "" {
			return errors.New("netsim: -csv and -json apply to sweeps; add -sweep or drop them")
		}
		sp := rec.Span("run")
		defer sp.End()
		err := runSingle(stdout, *topology, base, ch, *seed, *horizon, *warmup)
		obsCLI.DumpViolation(err)
		return err
	}
	if ch != nil {
		return errors.New("netsim: -churn-* flags apply to single runs; drop -sweep")
	}

	axes, err := parseSweep(*sweepSpec)
	if err != nil {
		return fmt.Errorf("netsim: %v", err)
	}
	for _, axis := range axes {
		if err := checkAxis(*topology, axis.Name); err != nil {
			return fmt.Errorf("netsim: %v", err)
		}
	}
	sweepSpan := rec.Span("sweep")
	res, err := fpcc.RunSweep(fpcc.SweepConfig{
		Params: axes,
		Build: func(values []float64, cellSeed uint64) (fpcc.NetConfig, error) {
			p := base
			for k, axis := range axes {
				if err := p.set(axis.Name, values[k]); err != nil {
					return fpcc.NetConfig{}, err
				}
			}
			return buildConfig(*topology, p, cellSeed)
		},
		Horizon:  *horizon,
		Warmup:   *warmup,
		BaseSeed: *seed,
		Workers:  *workers,
	})
	sweepSpan.End()
	if err != nil {
		obsCLI.DumpViolation(err)
		return err
	}
	wrote := false
	for _, out := range []struct {
		path  string
		write func(io.Writer) error
	}{
		{*csvPath, res.WriteCSV},
		{*jsonPath, res.WriteJSON},
	} {
		if out.path == "" {
			continue
		}
		w, closeFn, err := output(out.path, stdout)
		if err != nil {
			return fmt.Errorf("netsim: %v", err)
		}
		if err := out.write(w); err != nil {
			return fmt.Errorf("netsim: %v", err)
		}
		if err := closeFn(); err != nil {
			return fmt.Errorf("netsim: %v", err)
		}
		wrote = true
	}
	if !wrote {
		// No sink chosen: default to CSV on stdout.
		if err := res.WriteCSV(stdout); err != nil {
			return fmt.Errorf("netsim: %v", err)
		}
	}
	fmt.Fprintf(stderr, "netsim: swept %d cells over %d parameters\n", len(res.Cells), len(res.Params))
	return nil
}

// churnSpec is the optional open-system class of a single run.
type churnSpec struct {
	arrival  float64
	lifetime fpcc.ChurnLifetime
	n0       int
}

// buildChurn validates the churn flags into a spec (nil = closed run).
func buildChurn(mean, arrival float64, n0 int, pareto bool) (*churnSpec, error) {
	if mean <= 0 {
		if arrival > 0 || n0 > 0 {
			return nil, fmt.Errorf("netsim: -churn-arrival/-churn-n0 need -churn-mean > 0")
		}
		return nil, nil
	}
	if arrival <= 0 && n0 <= 0 {
		return nil, fmt.Errorf("netsim: -churn-mean needs -churn-arrival or -churn-n0")
	}
	var lt fpcc.ChurnLifetime
	if pareto {
		p, err := fpcc.NewChurnPareto(1.5, mean/3)
		if err != nil {
			return nil, err
		}
		lt = p
	} else {
		e, err := fpcc.NewChurnExponential(mean)
		if err != nil {
			return nil, err
		}
		lt = e
	}
	if n0 <= 0 {
		n0 = int(arrival*mean + 0.999)
	}
	return &churnSpec{arrival: arrival, lifetime: lt, n0: n0}, nil
}

// runSingle executes one simulation and writes the report tables to
// w.
func runSingle(w io.Writer, topology string, p params, ch *churnSpec, seed uint64, horizon, warmup float64) error {
	cfg, err := buildConfig(topology, p, seed)
	if err != nil {
		return err
	}
	if ch != nil {
		// The open class runs the long flow's template: same law,
		// route and pacing, sessions instead of a permanent sender.
		cfg.Churn = append(cfg.Churn, fpcc.NetChurnClass{
			Name:     "session",
			Template: cfg.Flows[0],
			Arrival:  ch.arrival,
			Lifetime: ch.lifetime,
			N0:       ch.n0,
		})
	}
	sim, err := fpcc.NewNetSim(cfg)
	if err != nil {
		return err
	}
	res, err := sim.Run(horizon, warmup)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "%s: %d nodes, %d flows, horizon %.0fs (warmup %.0fs)\n",
		topology, len(cfg.Nodes), len(cfg.Flows), horizon, warmup)
	var total float64
	for _, tp := range res.Throughput {
		total += tp
	}
	fmt.Fprintf(w, "%-8s %-16s %-9s %-12s %-8s %-8s\n", "flow", "route", "RTT(s)", "throughput", "share", "dropped")
	for i, tp := range res.Throughput {
		route := make([]string, len(cfg.Flows[i].Route))
		for k, h := range cfg.Flows[i].Route {
			route[k] = cfg.NodeName(h)
		}
		share := 0.0
		if total > 0 {
			share = tp / total
		}
		fmt.Fprintf(w, "%-8s %-16s %-9.3f %-12.3f %-8.3f %-8d\n",
			cfg.FlowName(i), strings.Join(route, ">"), res.FlowRTT[i], tp, share, res.Dropped[i])
	}
	fmt.Fprintf(w, "Jain fairness %.4f\n\n", fpcc.JainIndex(res.Throughput))
	if len(cfg.Churn) > 0 {
		fmt.Fprintf(w, "%-8s %-8s %-8s %-10s %-12s %-12s %-8s\n",
			"class", "born", "died", "live(avg)", "live(end)", "throughput", "dropped")
		for j := range cfg.Churn {
			fmt.Fprintf(w, "%-8s %-8d %-8d %-10.2f %-12d %-12.3f %-8d\n",
				cfg.ChurnName(j), res.ChurnBorn[j], res.ChurnDied[j],
				res.ChurnLive[j].Mean(), res.ChurnLiveEnd[j],
				res.ChurnThroughput[j], res.ChurnDropped[j])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-8s %-8s %-12s %-12s %-8s\n", "node", "mu", "mean queue", "std queue", "dropped")
	for h := range cfg.Nodes {
		fmt.Fprintf(w, "%-8s %-8.1f %-12.3f %-12.3f %-8d\n",
			cfg.NodeName(h), cfg.Nodes[h].Mu,
			res.NodeQueue[h].Mean(), res.NodeQueue[h].StdDev(), res.NodeDropped[h])
	}
	return nil
}
