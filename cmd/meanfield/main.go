// Command meanfield runs the population-density engine on a one- or
// two-class heterogeneous scenario: a fast-RTT class and (when
// -slow-frac > 0) a slow-RTT class whose probe gain is C0/rtt-ratio
// and whose feedback arrives rtt-ratio times later. The density mode
// steps millions of sources at O(classes × bins) cost; the particle
// mode runs the same Config as a finite-N SoA Monte-Carlo
// cross-check (practical up to ~10⁵ sources).
//
// With -churn-mean > 0 the scenario becomes an open system: sessions
// of every compliant class are born at the Little's-law rate N/mean
// and live exponential (or, with -churn-pareto, heavy-tailed Pareto)
// lifetimes, evolved as birth–death source terms at unchanged
// O(classes × bins) cost. With -attack-frac > 0 an unresponsive CBR
// class blasting that fraction of μ joins the mix (density mode only,
// like churn).
//
// Examples:
//
//	meanfield -n 1000000 -slow-frac 0.5 -rtt-ratio 4
//	meanfield -mode particle -n 10000 -seed 7 -workers 8
//	meanfield -n 1000000 -csv trace.csv -every 0.1
//	meanfield -n 1000000 -churn-mean 4 -churn-pareto -attack-frac 0.3
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
		n        = flag.Int("n", 1_000_000, "total number of sources")
		slowFrac = flag.Float64("slow-frac", 0.5, "fraction of sources in the slow-RTT class (0 = single class)")
		rttRatio = flag.Float64("rtt-ratio", 4, "slow-class RTT / fast-class RTT")
		delay    = flag.Float64("delay", 0.2, "fast-class feedback delay (s); slow class gets delay*rtt-ratio (0 = instantaneous feedback)")
		c0       = flag.Float64("c0", 0.5, "per-source additive increase (fast class; slow gets c0/rtt-ratio)")
		c1       = flag.Float64("c1", 0.5, "multiplicative decrease constant")
		qhat0    = flag.Float64("qhat0", 2, "per-source queue target (total target = qhat0*n)")
		share    = flag.Float64("share", 1, "per-source service share μ/n (pk/s)")
		sigma    = flag.Float64("sigma", 0.3, "intrinsic per-source rate noise σ")
		lmax     = flag.Float64("lmax", 6, "rate-domain upper bound (per source)")
		bins     = flag.Int("bins", 192, "rate-grid resolution (density mode)")
		dt       = flag.Float64("dt", 0.005, "time step")
		horizon  = flag.Float64("t", 120, "simulation horizon (s)")
		warmup   = flag.Float64("warmup", 60, "transient discarded before averaging (s)")
		mode     = flag.String("mode", "density", "engine: density or particle")
		firstOrd = flag.Bool("first-order", false, "use first-order upwind transport instead of MUSCL (density mode)")
		seed     = flag.Uint64("seed", 1, "rng seed (particle mode)")
		workers  = flag.Int("workers", 0, "particle chunk workers (0 = GOMAXPROCS); never affects results")
		csvPath  = flag.String("csv", "", "write a trace CSV here ('-' = stdout)")
		every    = flag.Float64("every", 0.5, "trace sample period (s)")

		churnMean   = flag.Float64("churn-mean", 0, "mean session lifetime (s); > 0 opens the compliant classes with Little's-law arrivals N/mean (density mode only)")
		churnPareto = flag.Bool("churn-pareto", false, "heavy-tailed Pareto(α=1.5) lifetimes instead of exponential")
		attackFrac  = flag.Float64("attack-frac", 0, "offered load of an unresponsive CBR attacker class, as a fraction of μ (0 = honest only; density mode only)")
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

	if *mode == "particle" && (*churnMean > 0 || *attackFrac > 0) {
		log.Fatalf("meanfield: -churn-mean/-attack-frac are density-mode only (the particle backend is a closed, compliant population)")
	}
	cfg, err := buildConfig(*n, *slowFrac, *rttRatio, *delay, *c0, *c1, *qhat0, *share,
		*sigma, *lmax, *bins, *dt, !*firstOrd, *churnMean, *churnPareto, *attackFrac)
	if err != nil {
		log.Fatal(err)
	}
	rec := obsCLI.Recorder(*mode)
	cfg.Obs = rec

	var eng fpcc.MeanFieldStepper
	switch *mode {
	case "density":
		d, err := fpcc.NewMeanField(cfg)
		if err != nil {
			log.Fatal(err)
		}
		eng = d
	case "particle":
		if cfg.TotalSources() > 200_000 {
			log.Fatalf("meanfield: %d sources is beyond the particle mode's practical range; use -mode density", cfg.TotalSources())
		}
		p, err := fpcc.NewMeanFieldParticles(cfg, *seed, *workers)
		if err != nil {
			log.Fatal(err)
		}
		eng = p
	default:
		log.Fatalf("meanfield: unknown mode %q (want density or particle)", *mode)
	}

	var trace io.Writer
	if *csvPath != "" {
		if *csvPath == "-" {
			trace = os.Stdout
		} else {
			f, err := os.Create(*csvPath)
			if err != nil {
				log.Fatalf("meanfield: %v", err)
			}
			defer f.Close()
			trace = f
		}
		fmt.Fprint(trace, "t,queue_per_source")
		for k := range cfg.Classes {
			fmt.Fprintf(trace, ",rate_%s", cfg.ClassName(k))
		}
		fmt.Fprintln(trace)
	}

	start := time.Now()
	var steps int
	nextSample := 0.0
	perSource := float64(cfg.TotalSources())
	stepSpan := rec.Span("step")
	meanQ, rates, err := fpcc.MeanFieldSteadyStats(eng, *warmup, *horizon, func() {
		steps++
		if trace != nil && eng.Time() >= nextSample {
			fmt.Fprintf(trace, "%g,%g", eng.Time(), eng.Queue()/perSource)
			for k := range cfg.Classes {
				fmt.Fprintf(trace, ",%g", eng.ClassMeanRate(k))
			}
			fmt.Fprintln(trace)
			nextSample += *every
		}
	})
	stepSpan.End()
	if err != nil {
		obsCLI.Fatal("meanfield", err)
	}
	elapsed := time.Since(start)

	fmt.Printf("mode=%s sources=%d classes=%d steps=%d wall=%v (%.3g µs/step)\n",
		*mode, cfg.TotalSources(), len(cfg.Classes), steps, elapsed.Round(time.Millisecond),
		float64(elapsed.Microseconds())/float64(steps))
	fmt.Printf("steady state over [%g, %g]:\n", *warmup, *horizon)
	fmt.Printf("  queue per source  %.4f (target %g)\n", meanQ/perSource, *qhat0)
	for k := range cfg.Classes {
		fmt.Printf("  %-6s mean rate  %.4f (N=%d, share %g)\n",
			cfg.ClassName(k), rates[k], cfg.Classes[k].N, *share)
	}
}

// buildConfig assembles the one- or two-class scenario, optionally
// opened by session churn and joined by an unresponsive attacker
// class.
func buildConfig(n int, slowFrac, rttRatio, delay, c0, c1, qhat0, share, sigma, lmax float64,
	bins int, dt float64, secondOrder bool,
	churnMean float64, churnPareto bool, attackFrac float64) (fpcc.MeanFieldConfig, error) {
	if slowFrac < 0 || slowFrac >= 1 {
		return fpcc.MeanFieldConfig{}, fmt.Errorf("meanfield: slow-frac %v outside [0, 1)", slowFrac)
	}
	if rttRatio < 1 {
		return fpcc.MeanFieldConfig{}, fmt.Errorf("meanfield: rtt-ratio %v below 1", rttRatio)
	}
	qhat := qhat0 * float64(n)
	nSlow := int(slowFrac * float64(n))
	nFast := n - nSlow
	fastLaw, err := fpcc.NewAIMD(c0*share, c1, qhat)
	if err != nil {
		return fpcc.MeanFieldConfig{}, err
	}
	classes := fpcc.MeanFieldClasses(fpcc.MeanFieldClass{
		Name: "fast", Law: fastLaw, N: nFast, Delay: delay,
		Lambda0: share, InitStd: 0.3 * share, SigmaL: sigma * share,
	})
	if nSlow > 0 {
		slowLaw, err := fpcc.NewAIMD(c0*share/rttRatio, c1, qhat)
		if err != nil {
			return fpcc.MeanFieldConfig{}, err
		}
		classes = append(classes, fpcc.MeanFieldClass{
			Name: "slow", Law: slowLaw, N: nSlow, Delay: delay * rttRatio,
			Lambda0: share, InitStd: 0.3 * share, SigmaL: sigma * share,
		})
	}
	if churnMean > 0 {
		var lt fpcc.ChurnLifetime
		if churnPareto {
			p, err := fpcc.NewChurnPareto(1.5, churnMean/3)
			if err != nil {
				return fpcc.MeanFieldConfig{}, err
			}
			lt = p
		} else {
			e, err := fpcc.NewChurnExponential(churnMean)
			if err != nil {
				return fpcc.MeanFieldConfig{}, err
			}
			lt = e
		}
		for k := range classes {
			classes[k].Churn = &fpcc.ChurnFlow{
				Arrival:  float64(classes[k].N) / churnMean,
				Lifetime: lt,
				Lambda0:  share, InitStd: 0.3 * share,
			}
		}
	}
	if attackFrac > 0 {
		// A fifth of the population blasts attackFrac·μ between them;
		// the per-source rate must fit the λ-grid.
		nAtt := n / 5
		if nAtt < 1 {
			nAtt = 1
		}
		lamA := attackFrac * share * float64(n) / float64(nAtt)
		if lamA > lmax*share {
			return fpcc.MeanFieldConfig{}, fmt.Errorf(
				"meanfield: attack-frac %v needs per-source rate %.3g beyond the λ-domain %.3g; raise -lmax",
				attackFrac, lamA, lmax*share)
		}
		classes = append(classes, fpcc.MeanFieldClass{
			Name: "attack", Law: fpcc.UnresponsiveLaw{}, N: nAtt,
			Lambda0: lamA, InitStd: 0.1 * share, SigmaL: 0.05 * share,
		})
	}
	return fpcc.MeanFieldConfig{
		Classes:     classes,
		Mu:          share * float64(n),
		LMax:        lmax * share,
		Bins:        bins,
		Dt:          dt,
		Q0:          qhat,
		SecondOrder: secondOrder,
	}, nil
}
