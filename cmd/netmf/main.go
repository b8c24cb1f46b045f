// Command netmf runs the networked mean-field engine on the canned
// multi-bottleneck scenarios: the parking-lot fairness benchmark (one
// long class over a chain of hops, one cross class per hop) or the
// bottleneck-migration cross chain (an adaptive two-hop class vs a
// constant-rate class at the second hop), at any population size —
// the per-step cost is O(links + classes × bins), independent of N.
//
// With -churn-mean > 0 the multi-hop (long) class becomes an open
// session population: Little's-law Poisson arrivals, exponential (or,
// with -churn-pareto, heavy-tailed Pareto) lifetimes, evolved as
// birth–death source terms — the E34 turnover-vs-starvation scenario
// at any N.
//
// Examples:
//
//	netmf -scenario parking-lot -hops 3 -n 1000000
//	netmf -scenario parking-lot -hops 5 -rtt-stretch 4 -csv trace.csv
//	netmf -scenario cross-chain -cross-frac 0.4 -n 1000000
//	netmf -scenario parking-lot -hops 2 -churn-mean 4 -churn-pareto
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

func main() {
	var (
		scenario   = flag.String("scenario", "parking-lot", "canned topology: parking-lot or cross-chain")
		n          = flag.Int("n", 1_000_000, "sources per class (parking-lot) or total sources (cross-chain)")
		hops       = flag.Int("hops", 3, "bottleneck hops (parking-lot)")
		delay      = flag.Float64("delay", 0.2, "cross-class RTT / adaptive-class RTT (s)")
		rttStretch = flag.Float64("rtt-stretch", 1, "extra multiplier on the long class's hop-proportional RTT (parking-lot)")
		crossFrac  = flag.Float64("cross-frac", 0.3, "fraction of sources in the constant-rate cross class (cross-chain)")
		qhat0      = flag.Float64("qhat0", 2, "per-source queue target")
		sigma      = flag.Float64("sigma", 0.3, "per-source rate noise σ (adaptive classes)")
		bins       = flag.Int("bins", 192, "rate-grid resolution")
		dt         = flag.Float64("dt", 0.005, "time step")
		horizon    = flag.Float64("t", 120, "simulation horizon (s)")
		warmup     = flag.Float64("warmup", 60, "transient discarded before averaging (s)")
		firstOrd   = flag.Bool("first-order", false, "use first-order upwind transport instead of MUSCL")
		csvPath    = flag.String("csv", "", "write a per-node queue trace CSV here ('-' = stdout)")
		every      = flag.Float64("every", 0.5, "trace sample period (s)")

		churnMean   = flag.Float64("churn-mean", 0, "mean session lifetime (s); > 0 opens the multi-hop class with Little's-law arrivals N/mean")
		churnPareto = flag.Bool("churn-pareto", false, "heavy-tailed Pareto(α=1.5) lifetimes instead of exponential")
	)
	obsCLI := fpcc.BindObsFlags(flag.CommandLine)
	flag.Parse()
	// Errors from the fpcc packages already carry their package's
	// name and print as they are; only the messages this command
	// writes itself are prefixed with its name.
	if err := obsCLI.Setup(); err != nil {
		log.Fatal(err)
	}
	defer obsCLI.Close()

	var (
		cfg fpcc.NetMeanFieldConfig
		err error
	)
	switch *scenario {
	case "parking-lot":
		cfg, err = fpcc.NewNetMeanFieldParkingLot(fpcc.NetMeanFieldParkingLotConfig{
			Hops: *hops, N: *n, Delay: *delay, RTTStretch: *rttStretch,
			QHat0: *qhat0, Sigma: *sigma, Bins: *bins, Dt: *dt,
		})
	case "cross-chain":
		cfg, err = fpcc.NewNetMeanFieldCrossChain(fpcc.NetMeanFieldCrossChainConfig{
			N: *n, CrossFrac: *crossFrac, Delay: *delay,
			QHat0: *qhat0, Sigma: *sigma, Bins: *bins, Dt: *dt,
		})
	default:
		log.Fatalf("netmf: unknown scenario %q (want parking-lot or cross-chain)", *scenario)
	}
	if err != nil {
		log.Fatal(err)
	}
	cfg.SecondOrder = !*firstOrd
	if *churnMean > 0 {
		// Both canned scenarios put the multi-hop adaptive class
		// first; turnover opens that class, the cross traffic stays
		// closed.
		var lt fpcc.ChurnLifetime
		if *churnPareto {
			p, perr := fpcc.NewChurnPareto(1.5, *churnMean/3)
			if perr != nil {
				log.Fatal(perr)
			}
			lt = p
		} else {
			e, eerr := fpcc.NewChurnExponential(*churnMean)
			if eerr != nil {
				log.Fatal(eerr)
			}
			lt = e
		}
		long := &cfg.Classes[0]
		long.Churn = &fpcc.ChurnFlow{
			Arrival:  float64(long.N) / *churnMean,
			Lifetime: lt,
			Lambda0:  long.Lambda0, InitStd: long.InitStd,
		}
	}
	rec := obsCLI.Recorder("netmf")
	cfg.Obs = rec

	setup := rec.Span("setup")
	eng, err := fpcc.NewNetMeanField(cfg)
	if err != nil {
		log.Fatal(err)
	}
	setup.End()

	var trace io.Writer
	if *csvPath != "" {
		if *csvPath == "-" {
			trace = os.Stdout
		} else {
			f, err := os.Create(*csvPath)
			if err != nil {
				log.Fatalf("netmf: %v", err)
			}
			defer f.Close()
			trace = f
		}
		fmt.Fprint(trace, "t")
		for j := range cfg.Topology.Nodes {
			fmt.Fprintf(trace, ",q_%s", cfg.Topology.NodeName(j))
		}
		for k := range cfg.Classes {
			fmt.Fprintf(trace, ",rate_%s", cfg.ClassName(k))
		}
		fmt.Fprintln(trace)
	}

	perSource := float64(cfg.TotalSources())
	start := time.Now()
	var steps int
	nextSample := 0.0
	stepSpan := rec.Span("step")
	meanQ, rates, err := fpcc.NetMeanFieldSteadyStats(eng, *warmup, *horizon, func() {
		steps++
		if trace != nil && eng.Time() >= nextSample {
			fmt.Fprintf(trace, "%g", eng.Time())
			for j := range cfg.Topology.Nodes {
				fmt.Fprintf(trace, ",%g", eng.Queue(j)/perSource)
			}
			for k := range cfg.Classes {
				fmt.Fprintf(trace, ",%g", eng.ClassMeanRate(k))
			}
			fmt.Fprintln(trace)
			nextSample += *every
		}
	})
	stepSpan.End()
	if err != nil {
		obsCLI.Fatal("netmf", err)
	}
	elapsed := time.Since(start)

	fmt.Printf("scenario=%s sources=%d classes=%d nodes=%d steps=%d wall=%v (%.3g µs/step)\n",
		*scenario, cfg.TotalSources(), len(cfg.Classes), len(cfg.Topology.Nodes), steps,
		elapsed.Round(time.Millisecond), float64(elapsed.Microseconds())/float64(steps))
	fmt.Printf("steady state over [%g, %g]:\n", *warmup, *horizon)
	for j := range cfg.Topology.Nodes {
		fmt.Printf("  %-6s mean queue/source  %.4f (μ %g)\n",
			cfg.Topology.NodeName(j), meanQ[j]/perSource, cfg.Topology.Nodes[j].Mu)
	}
	for k := range cfg.Classes {
		fmt.Printf("  %-6s mean rate  %.4f (N=%d, %d hops)\n",
			cfg.ClassName(k), rates[k], cfg.Classes[k].N, len(cfg.Classes[k].Route))
	}
	if *churnMean > 0 {
		fmt.Printf("  %-6s live population  %.0f (Little's law %.0f)\n",
			cfg.ClassName(0), eng.ClassPopulation(0), cfg.Classes[0].Churn.MeanPopulation())
	}
}
