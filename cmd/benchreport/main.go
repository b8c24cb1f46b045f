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
//	benchreport -bench-json bench.json   # also write per-experiment timings
//	benchreport -workers 1 -baseline BENCH_2026-07-27.json  # diff timings (matching
//	                                     # outer AND inner worker config);
//	                                     # >25%+10ms regressions exit non-zero
//	benchreport -list                    # list the registry
package main

import (
	"encoding/json"
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
	benchJSON := flag.String("bench-json", "", "write a machine-readable per-experiment timing report here")
	baseline := flag.String("baseline", "", "diff current timings against this prior BENCH_*.json; >25% regressions exit non-zero")
	list := flag.Bool("list", false, "list experiments and exit")
	history := flag.Bool("history", false, "read every BENCH_*.json in -history-dir and render the per-experiment perf trajectory (honors -format), then exit")
	historyDir := flag.String("history-dir", ".", "directory scanned by -history for BENCH_*.json files")
	obsCLI := obscli.Bind(flag.CommandLine)
	flag.Parse()
	if err := obsCLI.Setup(); err != nil {
		fatal(err)
	}

	if *history {
		if err := renderHistory(os.Stdout, *historyDir, *format); err != nil {
			fatal(err)
		}
		return
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

	if *benchJSON != "" {
		f, err := os.Create(*benchJSON)
		if err != nil {
			fatal(err)
		}
		if err := suite.WriteBenchJSON(f, *workers, total); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
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

	if *baseline != "" {
		regressions, err := diffBaseline(*baseline, suite, *workers)
		if err != nil {
			fatal(err)
		}
		if regressions > 0 {
			fmt.Fprintf(os.Stderr, "%d timing regression(s) against %s\n", regressions, *baseline)
			os.Exit(2)
		}
	}
}

// Regressions are flagged when an experiment runs more than 25%
// slower than the baseline AND loses more than 10ms absolute — the
// floor keeps micro-experiments (tens of µs) from tripping the gate
// on scheduler noise.
const (
	regressionRatio = 1.25
	regressionFloor = 0.010 // seconds
)

// diffBaseline compares the suite's timings against a prior
// BENCH_*.json, prints the diff for every matched experiment on
// stderr, and returns the regression count. Experiments absent from
// either side are reported but never flagged, so the gate survives
// registry growth.
func diffBaseline(path string, suite *experiments.Suite, workers int) (regressions int, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("baseline: %w", err)
	}
	var base experiments.BenchReport
	if err := json.Unmarshal(raw, &base); err != nil {
		return 0, fmt.Errorf("baseline %s does not decode as a BENCH_*.json timing report: %w", path, err)
	}
	// Per-experiment wall times depend on how many experiments run
	// concurrently, so a diff across worker counts compares
	// incommensurable numbers (contention inflates parallel timings).
	// Refuse rather than gate on noise.
	if base.Workers > 0 && base.Workers != workers {
		return 0, fmt.Errorf("baseline %s was recorded at workers=%d but this run used workers=%d; rerun with -workers %d for a comparable diff",
			path, base.Workers, workers, base.Workers)
	}
	// The inner grant shifts where time is spent inside the heavy
	// experiments, so mismatched (outer, inner) splits are equally
	// incommensurable. Only fpcc-bench/3 baselines record the grant;
	// for older ones the split is unverifiable, so warn instead.
	switch {
	case base.InnerWorkers > 0 && base.InnerWorkers != suite.InnerGrant:
		return 0, fmt.Errorf("baseline %s was recorded at inner_workers=%d but this run granted %d; rerun with -inner-workers %d (or match -workers) for a comparable diff",
			path, base.InnerWorkers, suite.InnerGrant, base.InnerWorkers)
	case base.InnerWorkers == 0:
		fmt.Fprintf(os.Stderr, "note: baseline %s predates inner_workers (pre-%s); inner split not verified\n", path, experiments.BenchSchema)
	}
	baseSec := make(map[string]float64, len(base.Experiments))
	for _, e := range base.Experiments {
		baseSec[e.ID] = e.Seconds
	}
	fmt.Fprintf(os.Stderr, "baseline %s (workers=%d):\n", path, base.Workers)
	for _, r := range suite.Reports {
		id := r.Experiment.ID
		cur := r.Elapsed.Seconds()
		prev, ok := baseSec[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "  %-4s %8.3fs  (new: no baseline entry)\n", id, cur)
			continue
		}
		delete(baseSec, id)
		change := "="
		if prev > 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(cur-prev)/prev)
		}
		mark := ""
		if cur > prev*regressionRatio && cur-prev > regressionFloor {
			mark = "  REGRESSION"
			regressions++
		}
		fmt.Fprintf(os.Stderr, "  %-4s %8.3fs  vs %8.3fs  %s%s\n", id, cur, prev, change, mark)
	}
	for _, e := range base.Experiments {
		if _, unmatched := baseSec[e.ID]; unmatched {
			fmt.Fprintf(os.Stderr, "  %-4s (baseline entry not in this run)\n", e.ID)
		}
	}
	return regressions, nil
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
