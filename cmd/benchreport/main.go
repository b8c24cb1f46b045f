// Command benchreport runs the experiment registry (E1..E34) through
// the parallel suite runner and prints the paper-style result tables
// as text, CSV or JSON. The CSV/JSON renderings carry full-precision
// values and are byte-identical for any worker count.
//
// Usage:
//
//	benchreport                          # run everything, text tables
//	benchreport -run 'E(6|19)$'          # run by id regex
//	benchreport -run sweep               # run by tag or title
//	benchreport -only E6                 # run one experiment (exact id)
//	benchreport -workers 8 -format json  # parallel, machine output
//	benchreport -workers 1 -inner-workers 8  # serial suite, parallel solver sweeps
//	benchreport -workers 1 -obs-summary m.json  # per-experiment phases and resources
//	benchreport -list                    # list the registry
//	benchreport -compare parent*.json -- change*.json  # regression gate over bench/run.sh results
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"strings"
	"time"

	"fpcc/internal/experiments"
	"fpcc/internal/obs/obscli"
)

func main() {
	only := flag.String("only", "", "run only the experiment with this exact id (e.g. E6)")
	run := flag.String("run", "", "run experiments whose id, title or tag matches this regexp")
	workers := flag.Int("workers", 0, "experiment worker count (0 = GOMAXPROCS)")
	innerWorkers := flag.Int("inner-workers", 0, "force the per-experiment inner worker grant (0 = negotiate GOMAXPROCS across the outer pool); never changes results")
	format := flag.String("format", "text", "output format: text, csv or json")
	list := flag.Bool("list", false, "list experiments and exit")
	compareMode := flag.Bool("compare", false, `judge bench/run.sh results files given as arguments: the parent's, "--", then the change's; exits 1 when worse, 2 when incomparable`)
	obsCLI := obscli.Bind(flag.CommandLine, os.Stderr)
	flag.Parse()
	if *compareMode {
		os.Exit(runCompare(os.Stdout, os.Stderr, "BENCHMARK.json", flag.Args()))
	}
	if err := obsCLI.Setup(); err != nil {
		fatal(err)
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %-62s [%s]\n", e.ID, e.Title, strings.Join(e.Tags, " "))
		}
		return
	}

	// -only promises exact-id selection, but the shared filter is also
	// matched against titles and tags; requiring a registered id up
	// front keeps `-only sweep` from silently selecting every
	// sweep-tagged experiment.
	if *only != "" {
		known := false
		for _, e := range experiments.All() {
			if e.ID == *only {
				known = true
				break
			}
		}
		if !known {
			fatal(fmt.Errorf("no experiment with id %q (use -list to see the registry)", *only))
		}
	}
	filter, err := buildFilter(*only, *run)
	if err != nil {
		fatal(err)
	}
	var render func(*experiments.Suite, io.Writer) error
	switch *format {
	case "text":
		render = (*experiments.Suite).WriteText
	case "csv":
		render = (*experiments.Suite).WriteCSV
	case "json":
		render = (*experiments.Suite).WriteJSON
	default:
		fatal(fmt.Errorf("unknown format %q (want text, csv or json)", *format))
	}
	if *workers <= 0 {
		*workers = runtime.GOMAXPROCS(0)
	}
	experiments.SetInnerWorkers(*innerWorkers)
	start := time.Now()
	suite, err := experiments.RunSuite(experiments.SuiteConfig{Filter: filter, Workers: *workers, Obs: obsCLI.Config()})
	if err != nil {
		if errors.Is(err, experiments.ErrNoMatch) {
			err = fmt.Errorf("%w (use -list to see the registry)", err)
		}
		// A violation carries its flight-recorder context; dump it and
		// close the obs layer so trace/manifest artifacts survive.
		obsCLI.DumpViolation(err)
		obsCLI.Close()
		fatal(err)
	}
	total := time.Since(start)
	if err := obsCLI.Close(); err != nil {
		fatal(err)
	}

	if err := render(suite, os.Stdout); err != nil {
		fatal(err)
	}

	// Timing and reproduction summary on stderr, keeping stdout
	// deterministic for any worker count.
	for _, r := range suite.Reports {
		fmt.Fprintf(os.Stderr, "%-4s %v\n", r.Experiment.ID, r.Elapsed.Round(time.Millisecond))
	}
	fmt.Fprintf(os.Stderr, "%d experiments in %v (workers=%d)\n",
		len(suite.Reports), total.Round(time.Millisecond), *workers)
	if alarms := suite.Alarms(); len(alarms) > 0 {
		for _, a := range alarms {
			fmt.Fprintf(os.Stderr, "ALARMED: %s\n", a)
		}
		os.Exit(1)
	}
}

// buildFilter combines -only (exact id) and -run (regexp) into one
// selection regexp.
func buildFilter(only, run string) (*regexp.Regexp, error) {
	switch {
	case only != "" && run != "":
		return nil, fmt.Errorf("-only and -run are mutually exclusive")
	case only != "":
		return regexp.Compile("^" + regexp.QuoteMeta(only) + "$")
	case run != "":
		re, err := regexp.Compile(run)
		if err != nil {
			return nil, fmt.Errorf("bad -run regexp: %v", err)
		}
		return re, nil
	default:
		return nil, nil
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
	os.Exit(1)
}
