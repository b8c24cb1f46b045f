package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"regexp"
	"time"

	"fpcc/internal/obs"
	"fpcc/internal/sweep"
)

// This file is the parallel suite runner: it executes any selection
// of the registry on the engine-agnostic worker pool of
// internal/sweep. Experiments are mutually independent and
// internally deterministic, so the suite's text/CSV/JSON renderings
// are byte-identical for any worker count; only the timing report
// (WriteBenchJSON) varies run to run.

// SuiteConfig selects and bounds a suite run.
type SuiteConfig struct {
	// Filter selects experiments whose ID, Title or any Tag matches;
	// nil runs everything.
	Filter *regexp.Regexp
	// Workers bounds the parallelism (0 means GOMAXPROCS).
	Workers int
	// Obs, when non-nil, instruments the run: each experiment gets a
	// recorder scoped to its ID (streaming probes/spans/violations to
	// the configured sink) and its setup/step/render phase spans land
	// in Report.Summary.Spans and the bench JSON. Nil is the
	// zero-overhead default; the suite renderings are byte-identical
	// either way.
	Obs *obs.Config
}

// Report is one executed experiment: its registry entry, the table it
// produced, the wall-clock time it took, and its resource-annotated
// summary manifest.
type Report struct {
	Experiment Experiment
	Table      *Table
	Elapsed    time.Duration
	// Summary is the experiment's obs.Summary node: the recorder
	// hierarchy's aggregates merged deterministically (empty but for
	// the scope on uninstrumented runs) — among them the per-phase
	// span totals (Spans: seconds by span name, e.g. "setup", "step",
	// "render") of an instrumented run — annotated with the resource
	// deltas harvested around the run — wall and CPU seconds, bytes
	// allocated, mallocs, GC cycles. The process-wide counters
	// attribute exactly at workers=1 and are upper bounds when other
	// experiments run concurrently.
	Summary *obs.Summary
}

// Suite holds the reports of a completed run in registry order, plus
// the inner-worker configuration the two-level scheduler used: the
// base grant each experiment was offered before its Width cap (or the
// SetInnerWorkers override, when set), and the run manifest root.
type Suite struct {
	Reports    []Report
	InnerGrant int
	// Resources are the whole-run process deltas (the per-experiment
	// splits live on each Report.Summary).
	Resources obs.Resources
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
	if n := len(selected); outer > n {
		outer = n
	}
	suiteRec := cfg.Obs.Recorder("suite")
	runStart := obs.ReadResources()
	reports, err := sweep.MapWorker(len(selected), cfg.Workers, func(w, i int) (Report, error) {
		rec := cfg.Obs.Recorder(selected[i].ID)
		sp := suiteRec.WorkerSpan("exp."+selected[i].ID, w)
		before := obs.ReadResources()
		start := time.Now() //fpcc:wallclock -- resource accounting for Report.WallSeconds; never feeds simulation state
		tb, err := selected[i].Run(NewCtx(rec, negotiateInner(outer, selected[i].Width)))
		elapsed := time.Since(start) //fpcc:wallclock -- resource accounting for Report.WallSeconds; never feeds simulation state
		res := obs.ReadResources().Sub(before)
		res.WallSeconds = elapsed.Seconds()
		sp.End()
		if err != nil {
			return Report{}, fmt.Errorf("%s: %w", selected[i].ID, err)
		}
		if ferr := rec.Flush(); ferr != nil {
			return Report{}, fmt.Errorf("%s: flushing trace: %w", selected[i].ID, ferr)
		}
		sum := rec.Summary()
		if sum == nil {
			sum = &obs.Summary{Scope: selected[i].ID}
		}
		sum.Resources = &res
		return Report{Experiment: selected[i], Table: tb, Elapsed: elapsed, Summary: sum}, nil
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: suite %w", err)
	}
	if ferr := suiteRec.Flush(); ferr != nil {
		return nil, fmt.Errorf("experiments: flushing suite trace: %w", ferr)
	}
	s := &Suite{Reports: reports, InnerGrant: negotiateInner(outer, 0), Resources: obs.ReadResources().Sub(runStart)}
	if forced := InnerWorkersOverride(); forced > 0 {
		s.InnerGrant = forced
	}
	return s, nil
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
// report is deterministic; timings go to WriteBenchJSON).
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

// BenchSchema versions the bench JSON artifact. "fpcc-bench/2" added
// the schema field itself and the optional per-experiment phase
// breakdowns; "fpcc-bench/3" added inner_workers (the inner grant of
// the two-level scheduler); "fpcc-bench/4" added per-experiment
// resources (wall/CPU seconds, allocator traffic, GC cycles) and the
// run's obs.Summary manifest. Schema-less files are the v1 shape.
// Nothing reads the artifact back: the committed BENCH_*.json files
// are a record, and the regression gate (benchreport -compare) judges
// bench/run.sh results instead.
const BenchSchema = "fpcc-bench/4"

// BenchEntry is one experiment's timing in the machine-readable
// benchmark report. Phases, present when the run was instrumented
// (benchreport -trace / SuiteConfig.Obs), breaks Seconds down by span
// name — setup/step/render for the instrumented heavy experiments —
// so a regression names the phase it lives in, not just the
// experiment. Resources (v4) carries the run's process-counter
// deltas: exact at workers=1, an upper bound when experiments ran
// concurrently.
type BenchEntry struct {
	ID        string             `json:"id"`
	Title     string             `json:"title"`
	Seconds   float64            `json:"seconds"`
	Phases    map[string]float64 `json:"phases,omitempty"`
	Resources *obs.Resources     `json:"resources,omitempty"`
}

// BenchReport is the machine-readable per-experiment timing report
// seeding the BENCH_*.json perf trajectory.
type BenchReport struct {
	Schema  string `json:"schema,omitempty"`
	Workers int    `json:"workers"`
	// InnerWorkers is the per-experiment inner grant of the two-level
	// scheduler (before Width caps), or the SetInnerWorkers override.
	InnerWorkers int          `json:"inner_workers,omitempty"`
	TotalSeconds float64      `json:"total_seconds"`
	Experiments  []BenchEntry `json:"experiments"`
	// Summary (v4) is the run manifest: a root node carrying the
	// whole-run resource deltas with one child per experiment — each
	// the experiment's recorder hierarchy merged deterministically,
	// annotated with its own resource delta.
	Summary *obs.Summary `json:"summary,omitempty"`
}

// Bench summarizes the suite's timings. total is the wall-clock time
// of the whole run (under parallelism it is less than the sum of the
// per-experiment times); workers records the pool bound used, and the
// suite's inner grant rides along, so the report says which worker
// split its timings describe.
func (s *Suite) Bench(workers int, total time.Duration) *BenchReport {
	rep := &BenchReport{Schema: BenchSchema, Workers: workers, InnerWorkers: s.InnerGrant, TotalSeconds: total.Seconds()}
	rep.Summary = s.Summary()
	for _, r := range s.Reports {
		entry := BenchEntry{
			ID:      r.Experiment.ID,
			Title:   r.Experiment.Title,
			Seconds: r.Elapsed.Seconds(),
		}
		if r.Summary != nil {
			entry.Resources = r.Summary.Resources
			if len(r.Summary.Spans) > 0 {
				entry.Phases = make(map[string]float64, len(r.Summary.Spans))
				for name, sp := range r.Summary.Spans {
					entry.Phases[name] = sp.Seconds
				}
			}
		}
		rep.Experiments = append(rep.Experiments, entry)
	}
	return rep
}

// Summary assembles the run manifest: a root node scoped "suite"
// carrying the whole-run resource deltas, with one child per report
// in registry order (the order the suite renders in, which reads
// better in a manifest than the lexicographic child order recorder
// trees use).
func (s *Suite) Summary() *obs.Summary {
	res := s.Resources
	root := &obs.Summary{Scope: "suite", Resources: &res}
	for _, r := range s.Reports {
		if r.Summary != nil {
			root.Children = append(root.Children, r.Summary)
		}
	}
	return root
}

// WriteBenchJSON renders the timing report as indented JSON. Unlike
// the suite renderings this is inherently non-deterministic (it
// reports wall-clock measurements).
func (s *Suite) WriteBenchJSON(w io.Writer, workers int, total time.Duration) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.Bench(workers, total))
}
