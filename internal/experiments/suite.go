package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"regexp"
	"runtime"
	"time"

	"fpcc/internal/obs"
	"fpcc/internal/sweep"
)

// This file is the parallel suite runner: it executes any selection
// of the registry on the engine-agnostic worker pool of
// internal/sweep. Experiments are mutually independent and
// internally deterministic, so the suite's text/CSV/JSON renderings
// are byte-identical for any worker count; only the timings on each
// Report (Elapsed, and the phase spans and resources of its Summary)
// vary run to run.

// SuiteConfig selects and bounds a suite run.
type SuiteConfig struct {
	// Filter selects experiments whose ID, Title or any Tag matches;
	// nil runs everything.
	Filter *regexp.Regexp
	// Workers bounds the parallelism (0 means GOMAXPROCS).
	Workers int
	// Obs, when non-nil, instruments the run: each experiment gets a
	// recorder scoped to its ID (streaming probes/spans/violations to
	// the configured sink), and its setup/step phase spans land in
	// Report.Summary.Spans. Nil is the zero-overhead default; the
	// suite renderings are byte-identical either way.
	Obs *obs.Config
}

// Report is one executed experiment: its registry entry, the table it
// produced, the wall-clock time it took, and its summary manifest.
type Report struct {
	Experiment Experiment
	Table      *Table
	Elapsed    time.Duration
	// Summary is the experiment's obs.Summary node: the recorder
	// hierarchy's aggregates merged deterministically (empty but for
	// the scope on uninstrumented runs). On an instrumented run its
	// Spans hold the two phases RunSuite times — "setup" until the
	// experiment calls Ctx.Stepping, "step" from there to the end of
	// Run — and, when the suite runs one experiment at a time, its
	// Resources hold the experiment's wall and CPU seconds, bytes
	// allocated, mallocs and GC cycles. Under parallel outer workers
	// the process-wide counters would mix experiments, so Resources
	// is left nil.
	Summary *obs.Summary
}

// Suite holds the reports of a completed run in registry order.
type Suite struct {
	Reports []Report
}

// Select returns the registry entries matched by filter (nil = all),
// in registry order.
func Select(filter *regexp.Regexp) []Experiment {
	all := All()
	if filter == nil {
		return all
	}
	var out []Experiment
	for _, e := range all {
		if matches(e, filter) {
			out = append(out, e)
		}
	}
	return out
}

// matches reports whether the filter hits the experiment's ID, Title
// or any Tag.
func matches(e Experiment, filter *regexp.Regexp) bool {
	if filter.MatchString(e.ID) || filter.MatchString(e.Title) {
		return true
	}
	for _, tag := range e.Tags {
		if filter.MatchString(tag) {
			return true
		}
	}
	return false
}

// ErrNoMatch reports a filter that selects nothing; callers can
// errors.Is on it to suggest the registry listing.
var ErrNoMatch = errors.New("no experiment matches the filter")

// RunSuite executes the selected experiments in parallel and returns
// their reports in registry order. A failing experiment aborts the
// suite; the reported error names the lowest-indexed failure
// regardless of worker count.
//
// RunSuite is the outer level of the two-level scheduler: cfg.Workers
// experiments run concurrently, and each receives an inner-worker
// grant negotiated from the shared GOMAXPROCS budget (capped by the
// experiment's declared Width), so outer × inner never oversubscribes
// the machine. Every (outer, inner) split renders byte-identical
// tables; only wall-clock time moves.
func RunSuite(cfg SuiteConfig) (*Suite, error) {
	selected := Select(cfg.Filter)
	if len(selected) == 0 {
		return nil, fmt.Errorf("experiments: %w", ErrNoMatch)
	}
	outer := cfg.Workers
	if outer <= 0 {
		outer = runtime.GOMAXPROCS(0)
	}
	if n := len(selected); outer > n {
		outer = n
	}
	reports, err := sweep.MapWorker(len(selected), outer, func(w, i int) (Report, error) {
		e := selected[i]
		rec := cfg.Obs.Recorder(e.ID)
		// The resource counters are process-wide: a delta is this
		// experiment's own only when no other runs beside it.
		attach := outer == 1 && rec != nil
		var before obs.Resources
		if attach {
			before = obs.ReadResources()
		}
		phase := rec.WorkerSpan("setup", w)
		ctx := &Ctx{rec: rec, inner: negotiateInner(outer, e.Width), worker: w, phase: &phase}
		start := time.Now() //fpcc:wallclock -- resource accounting for Report.Elapsed; never feeds simulation state
		tb, err := e.Run(ctx)
		elapsed := time.Since(start) //fpcc:wallclock -- resource accounting for Report.Elapsed; never feeds simulation state
		phase.End()
		if attach {
			res := obs.ReadResources().Sub(before)
			res.WallSeconds = elapsed.Seconds()
			rec.SetResources(res)
		}
		if err != nil {
			return Report{}, fmt.Errorf("%s: %w", e.ID, err)
		}
		if ferr := rec.Flush(); ferr != nil {
			return Report{}, fmt.Errorf("%s: flushing trace: %w", e.ID, ferr)
		}
		sum := rec.Summary()
		if sum == nil {
			sum = &obs.Summary{Scope: e.ID}
		}
		return Report{Experiment: e, Table: tb, Elapsed: elapsed, Summary: sum}, nil
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: suite %w", err)
	}
	return &Suite{Reports: reports}, nil
}

// Alarms returns every alarmed finding across the suite, prefixed
// with its experiment id.
func (s *Suite) Alarms() []string {
	var out []string
	for _, r := range s.Reports {
		if a := r.Table.Alarm(); a != "" {
			out = append(out, r.Experiment.ID+": "+a)
		}
	}
	return out
}

// WriteText renders every table as aligned plain text, in registry
// order, separated by blank lines. The output is deterministic (no
// timings) and byte-identical for any worker count.
func (s *Suite) WriteText(w io.Writer) error {
	for _, r := range s.Reports {
		if _, err := fmt.Fprintln(w, r.Table.String()); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV renders every table as a full-precision CSV block (see
// Table.WriteCSV), separated by blank lines. Deterministic for any
// worker count.
func (s *Suite) WriteCSV(w io.Writer) error {
	for i, r := range s.Reports {
		if i > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if err := r.Table.WriteCSV(w); err != nil {
			return err
		}
	}
	return nil
}

// suiteEntry is the JSON shape of one report (no timing: the JSON
// report is deterministic; timings go to the -obs-summary manifest).
type suiteEntry struct {
	ID    string   `json:"id"`
	Title string   `json:"title"`
	Tags  []string `json:"tags"`
	Table *Table   `json:"table"`
}

// WriteJSON renders the suite as indented JSON with full-precision
// row values. Deterministic for any worker count.
func (s *Suite) WriteJSON(w io.Writer) error {
	entries := make([]suiteEntry, len(s.Reports))
	for i, r := range s.Reports {
		entries[i] = suiteEntry{ID: r.Experiment.ID, Title: r.Experiment.Title, Tags: r.Experiment.Tags, Table: r.Table}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(entries)
}
