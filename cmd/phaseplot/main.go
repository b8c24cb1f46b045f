// Command phaseplot traces characteristic trajectories of the reduced
// (σ = 0) system in the (q, λ) phase plane — the curves of Figures 2
// and 3 — and prints them as TSV for plotting. For the AIMD law the
// closed-form tracer is used (no time-stepping error); with -delay a
// DDE trace shows the delay-induced limit cycle of Section 7.
//
// Example:
//
//	phaseplot -mu 10 -c0 2 -c1 0.8 -qhat 20 -q0 0 -lambda0 2 -t 200
//	phaseplot -delay 2 -t 400        # limit cycle instead of spiral
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"fpcc"
	"fpcc/internal/characteristics"
)

// errUsage reports a flag parse error, which the flag set has already
// printed with the usage.
var errUsage = errors.New("phaseplot: bad flags")

// maxSegments is the exact tracer's segment budget.
const maxSegments = 500000

func main() {
	log.SetFlags(0)
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		log.Fatal(err)
	}
}

// run parses args and writes the trace (or the portrait's blocks) to
// stdout as TSV; the flag usage and the final-state note go to
// stderr.
func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("phaseplot", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mu := fs.Float64("mu", 10, "bottleneck service rate μ")
	c0 := fs.Float64("c0", 2, "additive increase rate C0")
	c1 := fs.Float64("c1", 0.8, "multiplicative decrease constant C1")
	qHat := fs.Float64("qhat", 20, "target queue length q̂")
	q0 := fs.Float64("q0", 0, "initial queue")
	l0 := fs.Float64("lambda0", 2, "initial rate")
	horizon := fs.Float64("t", 200, "trace horizon (s)")
	delay := fs.Float64("delay", 0, "feedback delay τ (uses the DDE tracer when > 0)")
	samples := fs.Int("samples", 2000, "number of output samples")
	portrait := fs.Bool("portrait", false, "trace a lattice of initial conditions (full Figure 2 picture)")
	obsCLI := fpcc.BindObsFlags(fs, stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}
	if *portrait {
		fs.Visit(func(fl *flag.Flag) {
			if (fl.Name == "q0" || fl.Name == "lambda0" || fl.Name == "delay") && err == nil {
				err = fmt.Errorf("phaseplot: -%s does not apply to -portrait", fl.Name)
			}
		})
		if err != nil {
			return err
		}
	}
	if err := obsCLI.Setup(); err != nil {
		return err
	}
	defer func() {
		if cerr := obsCLI.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("phaseplot: closing observability: %w", cerr)
		}
	}()
	rec := obsCLI.Recorder("phaseplot")
	sp := rec.Span("run")
	defer sp.End()

	law, err := fpcc.NewAIMD(*c0, *c1, *qHat)
	if err != nil {
		return err
	}

	if *portrait {
		p, err := characteristics.Portrait(law, characteristics.PortraitConfig{
			Mu: *mu, QMaxInit: 2 * *qHat, LMaxInit: 2 * *mu,
			GridQ: 4, GridL: 4, Horizon: *horizon, Samples: *samples / 10,
		})
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "# trajectory blocks separated by blank lines: t\tq\tlambda")
		for _, traj := range p.Trajectories {
			for _, s := range traj {
				fmt.Fprintf(stdout, "%.4f\t%.5f\t%.5f\n", s.T, s.Q, s.Lambda)
			}
			fmt.Fprintln(stdout)
		}
		return nil
	}

	if *delay > 0 {
		m := fpcc.FluidModel{
			Mu: *mu, Q0: *q0,
			Sources: []fpcc.FluidSource{{Law: law, Delay: *delay, Lambda0: *l0}},
		}
		stride := int(*horizon / 1e-3 / float64(*samples))
		if stride < 1 {
			stride = 1
		}
		sol, err := m.Solve(*horizon, 1e-3, stride)
		if err != nil {
			obsCLI.DumpViolation(err)
			return err
		}
		fmt.Fprintln(stdout, "# t\tq\tlambda\tv")
		for i := 0; i < sol.Len(); i++ {
			t, y := sol.At(i)
			fmt.Fprintf(stdout, "%.4f\t%.5f\t%.5f\t%.5f\n", t, y[0], y[1], y[1]-*mu)
		}
		return nil
	}
	path, err := fpcc.TraceExact(law, *mu, fpcc.Point{Q: *q0, Lambda: *l0}, *horizon, maxSegments)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "# t\tq\tlambda\tv")
	ts, pts := path.Sample(*samples)
	for i, p := range pts {
		fmt.Fprintf(stdout, "%.4f\t%.5f\t%.5f\t%.5f\n", ts[i], p.Q, p.Lambda, p.Lambda-*mu)
	}
	if end := path.TotalTime(); len(path.Segments) == maxSegments && end < *horizon {
		fmt.Fprintf(stderr, "phaseplot: the exact trace stops at t=%.2f of %g: its %d-segment budget ran out\n",
			end, *horizon, len(path.Segments))
	}
	eq := fpcc.EquilibriumPoint(law, *mu)
	last := pts[len(pts)-1]
	fmt.Fprintf(stderr, "phaseplot: limit point (q̂, μ) = (%.2f, %.2f); final state (%.4f, %.4f)\n",
		eq.Q, eq.Lambda, last.Q, last.Lambda)
	return nil
}
