// Command stabmap prints the delayed-feedback stability map of a
// smoothed AIMD controller as TSV: for each (width, μ) cell the
// closed-form critical delay τ* (the Hopf point of the linearized
// loop, Section 7 made quantitative) and the Hopf frequency.
//
// Usage:
//
//	stabmap [-c0 2] [-c1 0.8] [-qhat 20] \
//	        [-widths 0.5,1,2,4] [-mus 5,10,20] [-tau 0.3]
//
// With -tau the tool also classifies each cell at that operating
// delay (stable / marginal / unstable) from the dominant
// characteristic root. Cells without an interior equilibrium
// (q* ≤ 0, i.e. C1·μ too large for C0 at that width) print "none".
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"strconv"
	"strings"

	"fpcc/internal/control"
	"fpcc/internal/obs/obscli"
	"fpcc/internal/stability"
)

// errUsage reports a flag parse error, which the flag set has already
// printed with the usage.
var errUsage = errors.New("stabmap: bad flags")

// parseList parses a comma-separated float list.
func parseList(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("stabmap: bad list element %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	log.SetFlags(0)
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		log.Fatal(err)
	}
}

// run parses args and writes the stability map to stdout as TSV, or
// nothing when any cell fails; the flag usage goes to stderr.
func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("stabmap", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c0 := fs.Float64("c0", 2, "probe gain C0")
	c1 := fs.Float64("c1", 0.8, "decay gain C1")
	qhat := fs.Float64("qhat", 20, "target queue length")
	widthsArg := fs.String("widths", "0.5,1,2,4", "comma-separated signal smoothing widths")
	musArg := fs.String("mus", "5,10,20", "comma-separated service rates")
	tau := fs.Float64("tau", 0, "operating delay to classify (0 = skip)")
	obsCLI := obscli.Bind(fs, stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}
	if !(*tau >= 0) || math.IsInf(*tau, 1) {
		return fmt.Errorf("stabmap: -tau must be finite and non-negative, got %v", *tau)
	}
	widths, err := parseList(*widthsArg)
	if err != nil {
		return err
	}
	mus, err := parseList(*musArg)
	if err != nil {
		return err
	}
	if err := obsCLI.Setup(); err != nil {
		return err
	}
	defer func() {
		if cerr := obsCLI.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("stabmap: closing observability: %w", cerr)
		}
	}()
	rec := obsCLI.Recorder("stabmap")
	sp := rec.Span("run")
	defer sp.End()

	// The map is built in memory, so a cell that fails leaves stdout
	// empty rather than holding a partial table.
	w := &strings.Builder{}
	fmt.Fprint(w, "width\tmu\tq_star\ta\tb\ttau_star\thopf_omega")
	if *tau > 0 {
		fmt.Fprint(w, "\tclass_at_tau")
	}
	fmt.Fprintln(w)
	for _, width := range widths {
		for _, mu := range mus {
			law, err := control.NewSmoothAIMD(*c0, *c1, *qhat, width)
			if err != nil {
				return err
			}
			qStar, err := law.Equilibrium(mu)
			if err != nil {
				return err
			}
			if qStar <= 0 {
				fmt.Fprintf(w, "%g\t%g\tnone\t-\t-\t-\t-", width, mu)
				if *tau > 0 {
					fmt.Fprint(w, "\t-")
				}
				fmt.Fprintln(w)
				continue
			}
			lin, err := stability.Linearize(law, mu, 0, qStar*4+10)
			if err != nil {
				return err
			}
			tauStar, omega, err := stability.CriticalDelay(lin.A, lin.B)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%g\t%g\t%.4f\t%.5f\t%.5f\t%.5f\t%.5f",
				width, mu, lin.QStar, lin.A, lin.B, tauStar, omega)
			if *tau > 0 {
				cls, _, err := stability.Classify(lin.A, lin.B, *tau, 1e-9)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "\t%s", cls)
			}
			fmt.Fprintln(w)
		}
	}
	_, err = io.WriteString(stdout, w.String())
	return err
}
