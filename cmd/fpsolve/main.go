// Command fpsolve integrates the paper's Fokker-Planck equation
// (Eq. 14) for a single AIMD-controlled source and prints the moment
// trajectory — and optionally the final q-marginal density — as TSV
// suitable for plotting.
//
// Example:
//
//	fpsolve -mu 10 -c0 2 -c1 0.8 -qhat 20 -sigma 1.5 -t 50 -marginal
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"fpcc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fpsolve: ")

	mu := flag.Float64("mu", 10, "bottleneck service rate μ")
	c0 := flag.Float64("c0", 2, "additive increase rate C0")
	c1 := flag.Float64("c1", 0.8, "multiplicative decrease constant C1")
	qHat := flag.Float64("qhat", 20, "target queue length q̂")
	sigma := flag.Float64("sigma", 1.5, "noise amplitude σ")
	tau := flag.Float64("tau", 0, "feedback delay τ (mean-field closure)")
	q0 := flag.Float64("q0", 5, "initial mean queue")
	l0 := flag.Float64("lambda0", 8, "initial mean rate")
	horizon := flag.Float64("t", 50, "integration horizon (s)")
	every := flag.Float64("every", 1, "moment print interval (s)")
	qMax := flag.Float64("qmax", 60, "q domain upper bound")
	nq := flag.Int("nq", 150, "q cells")
	nv := flag.Int("nv", 120, "v cells")
	marginal := flag.Bool("marginal", false, "print the final q-marginal density")
	obsCLI := fpcc.BindObsFlags(flag.CommandLine)
	flag.Parse()
	if err := obsCLI.Setup(); err != nil {
		log.Fatal(err)
	}
	defer obsCLI.Close()

	law, err := fpcc.NewAIMD(*c0, *c1, *qHat)
	if err != nil {
		log.Fatal(err)
	}
	vSpan := math.Max(*mu, *l0) * 1.2
	solver, err := fpcc.NewFokkerPlanck(fpcc.FokkerPlanckConfig{
		Law: law, Mu: *mu, Sigma: *sigma,
		QMax: *qMax, NQ: *nq,
		VMin: -vSpan, VMax: vSpan, NV: *nv,
		DelayTau: *tau,
		Obs:      obsCLI.Recorder("fp"),
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := solver.SetGaussian(*q0, *l0-*mu, 1.5, 1); err != nil {
		log.Fatal(err)
	}

	fmt.Println("# t\tE[Q]\tStd[Q]\tE[lambda]\tStd[v]\tmass\tP(Q>qhat)")
	for t := 0.0; t <= *horizon+1e-9; t += *every {
		if err := solver.Advance(t, 0); err != nil {
			obsCLI.Fatal("fpsolve", err)
		}
		m := solver.Moments()
		fmt.Printf("%.3f\t%.4f\t%.4f\t%.4f\t%.4f\t%.6f\t%.4f\n",
			t, m.MeanQ, math.Sqrt(m.VarQ), m.MeanV+*mu, math.Sqrt(m.VarV),
			m.Mass, solver.TailProb(*qHat))
	}
	if solver.OutflowMass() > 1e-3 {
		log.Printf("warning: %.2g probability mass left the domain; increase -qmax", solver.OutflowMass())
	}
	if *marginal {
		fmt.Println("\n# q\tdensity")
		g := solver.Grid().X
		for i, d := range solver.MarginalQ() {
			fmt.Printf("%.4f\t%.6g\n", g.Center(i), d)
		}
	}
}
