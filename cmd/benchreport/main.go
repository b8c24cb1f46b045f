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
	"slices"
	"strings"
	"time"

	"fpcc/internal/experiments"
	"fpcc/internal/obs/obscli"
)

// writers maps each -format to the suite render it writes.
var writers = map[string]func(*experiments.Suite, io.Writer) error{
	"text": (*experiments.Suite).WriteText,
	"csv":  (*experiments.Suite).WriteCSV,
	"json": (*experiments.Suite).WriteJSON,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the selected experiments and writes their
// render to stdout. It returns the exit code: 0, 1 on a run error or
// an alarm, 2 on a usage error; -compare returns runCompare's.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "run only the experiment with this exact id (e.g. E6)")
	runRE := fs.String("run", "", "run experiments whose id, title or tag matches this regexp")
	workers := fs.Int("workers", 0, "experiment worker count (0 = GOMAXPROCS)")
	innerWorkers := fs.Int("inner-workers", 0, "force the per-experiment inner worker grant (0 = negotiate GOMAXPROCS across the outer pool); never changes results")
	format := fs.String("format", "text", "output format: text, csv or json")
	list := fs.Bool("list", false, "list experiments and exit")
	compareMode := fs.Bool("compare", false, `judge bench/run.sh results files given as arguments: the parent's, "--", then the change's; exits 1 when worse, 2 when incomparable`)
	obsCLI := obscli.Bind(fs, stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *compareMode {
		return runCompare(stdout, stderr, "BENCHMARK.json", fs.Args())
	}
	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%-4s %-62s [%s]\n", e.ID, e.Title, strings.Join(e.Tags, " "))
		}
		return 0
	}
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "benchreport: %v\n", err)
		return code
	}

	// Usage errors exit before the observability layer opens any
	// -trace or -obs-summary file.
	filter, err := buildFilter(*only, *runRE)
	if err != nil {
		return fail(2, err)
	}
	render, ok := writers[*format]
	if !ok {
		return fail(2, fmt.Errorf("unknown format %q (want text, csv or json)", *format))
	}
	if err := obsCLI.Setup(); err != nil {
		return fail(1, err)
	}
	if *workers <= 0 {
		*workers = runtime.GOMAXPROCS(0)
	}
	experiments.SetInnerWorkers(*innerWorkers)
	start := time.Now()
	suite, err := experiments.RunSuite(experiments.SuiteConfig{Filter: filter, Workers: *workers, Obs: obsCLI.Config()})
	if err != nil {
		// A violation carries its flight-recorder context; dump it and
		// close the obs layer so trace/manifest artifacts survive.
		obsCLI.DumpViolation(err)
		obsCLI.Close()
		return fail(1, err)
	}
	total := time.Since(start)
	if err := obsCLI.Close(); err != nil {
		return fail(1, err)
	}

	if err := render(suite, stdout); err != nil {
		return fail(1, err)
	}

	// Timing and reproduction summary on stderr, keeping stdout
	// deterministic for any worker count.
	for _, r := range suite.Reports {
		fmt.Fprintf(stderr, "%-4s %v\n", r.Experiment.ID, r.Elapsed.Round(time.Millisecond))
	}
	fmt.Fprintf(stderr, "%d experiments in %v (workers=%d)\n",
		len(suite.Reports), total.Round(time.Millisecond), *workers)
	if alarms := suite.Alarms(); len(alarms) > 0 {
		for _, a := range alarms {
			fmt.Fprintf(stderr, "ALARMED: %s\n", a)
		}
		return 1
	}
	return 0
}

// buildFilter combines -only (exact id) and -run (regexp) into one
// selection regexp, and fails unless it selects an experiment.
func buildFilter(only, run string) (*regexp.Regexp, error) {
	var re *regexp.Regexp
	switch {
	case only != "" && run != "":
		return nil, fmt.Errorf("-only and -run are mutually exclusive")
	case only != "":
		// -only promises exact-id selection, but the shared filter is
		// also matched against titles and tags; requiring a registered
		// id keeps `-only sweep` from selecting every sweep-tagged
		// experiment.
		if !slices.ContainsFunc(experiments.All(), func(e experiments.Experiment) bool { return e.ID == only }) {
			return nil, fmt.Errorf("no experiment with id %q (use -list to see the registry)", only)
		}
		re = regexp.MustCompile("^" + regexp.QuoteMeta(only) + "$")
	case run != "":
		var err error
		if re, err = regexp.Compile(run); err != nil {
			return nil, fmt.Errorf("bad -run regexp: %v", err)
		}
	}
	if len(experiments.Select(re)) == 0 {
		return nil, fmt.Errorf("%w (use -list to see the registry)", experiments.ErrNoMatch)
	}
	return re, nil
}
