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
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"

	"fpcc"
)

// errUsage reports a flag parse error, which the flag set has already
// printed with the usage.
var errUsage = errors.New("bad flags")

func main() {
	log.SetFlags(0)
	log.SetPrefix("fpsolve: ")
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		log.Fatal(err)
	}
}

// run parses args and writes the moment trajectory (and the marginal)
// to stdout as TSV; the flag usage and the outflow warning go to
// stderr. Its errors do not repeat the command's name: main's logger
// adds it.
func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("fpsolve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mu := fs.Float64("mu", 10, "bottleneck service rate μ")
	c0 := fs.Float64("c0", 2, "additive increase rate C0")
	c1 := fs.Float64("c1", 0.8, "multiplicative decrease constant C1")
	qHat := fs.Float64("qhat", 20, "target queue length q̂")
	sigma := fs.Float64("sigma", 1.5, "noise amplitude σ")
	q0 := fs.Float64("q0", 5, "initial mean queue")
	l0 := fs.Float64("lambda0", 8, "initial mean rate")
	horizon := fs.Float64("t", 50, "integration horizon (s)")
	every := fs.Float64("every", 1, "moment print interval (s)")
	qMax := fs.Float64("qmax", 60, "q domain upper bound")
	nq := fs.Int("nq", 150, "q cells")
	nv := fs.Int("nv", 120, "v cells")
	marginal := fs.Bool("marginal", false, "print the final q-marginal density")
	obsCLI := fpcc.BindObsFlags(fs, stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}
	if err := checkTimes(*horizon, *every); err != nil {
		return err
	}
	if err := obsCLI.Setup(); err != nil {
		return err
	}
	defer func() {
		if cerr := obsCLI.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("closing observability: %w", cerr)
		}
	}()

	law, err := fpcc.NewAIMD(*c0, *c1, *qHat)
	if err != nil {
		return err
	}
	vSpan := math.Max(*mu, *l0) * 1.2
	solver, err := fpcc.NewFokkerPlanck(fpcc.FokkerPlanckConfig{
		Law: law, Mu: *mu, Sigma: *sigma,
		QMax: *qMax, NQ: *nq,
		VMin: -vSpan, VMax: vSpan, NV: *nv,
		Obs: obsCLI.Recorder("fp"),
	})
	if err != nil {
		return err
	}
	if err := solver.SetGaussian(*q0, *l0-*mu, 1.5, 1); err != nil {
		return err
	}

	fmt.Fprintln(stdout, "# t\tE[Q]\tStd[Q]\tE[lambda]\tStd[v]\tmass\tP(Q>qhat)")
	for t := 0.0; t <= *horizon+1e-9; t += *every {
		if err := solver.Advance(t, 0); err != nil {
			obsCLI.DumpViolation(err)
			return err
		}
		m := solver.Moments()
		fmt.Fprintf(stdout, "%.3f\t%.4f\t%.4f\t%.4f\t%.4f\t%.6f\t%.4f\n",
			t, m.MeanQ, math.Sqrt(m.VarQ), m.MeanV+*mu, math.Sqrt(m.VarV),
			m.Mass, solver.TailProb(*qHat))
	}
	if solver.OutflowMass() > 1e-3 {
		fmt.Fprintf(stderr, "fpsolve: warning: %.2g probability mass left the domain; increase -qmax\n", solver.OutflowMass())
	}
	if *marginal {
		fmt.Fprintln(stdout, "\n# q\tdensity")
		g := solver.Grid().X
		for i, d := range solver.MarginalQ() {
			fmt.Fprintf(stdout, "%.4f\t%.6g\n", g.Center(i), d)
		}
	}
	return nil
}

// checkTimes rejects a horizon or print interval that is not a
// positive finite number: a zero interval never advances the print
// loop, and a negative or NaN horizon would print only the header.
func checkTimes(horizon, every float64) error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"-t", horizon}, {"-every", every}} {
		if !(f.v > 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("%s must be a positive finite number, got %v", f.name, f.v)
		}
	}
	return nil
}
