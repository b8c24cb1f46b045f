package experiments

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"fpcc/internal/obs"
)

// This file holds the observability acceptance tests of the suite
// layer: attaching a recorder must never change a rendered byte,
// every experiment must report the runner's setup/step phases, traced
// runs must stream parseable JSONL with the documented probe series,
// and every catalogued probe must appear in EXPERIMENTS.md. The full-suite checks read render B (see
// suite_test.go), the suite's one traced render.

// scanTrace decodes every line of a JSONL trace and hands each event
// to fn, stopping at the first malformed line.
func scanTrace(r io.Reader, fn func(obs.Event)) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var e obs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return fmt.Errorf("trace line %q does not decode: %w", sc.Text(), err)
		}
		fn(e)
	}
	return sc.Err()
}

// traceStats is a suite trace summarized per experiment; an event's
// experiment is its scope up to the first '/' ("E28/cell0" → "E28").
type traceStats struct {
	probes     map[string]map[string]int // id → probe series → samples
	spans      map[string]int            // id → span and span_total events
	violations []obs.Event
}

// summarizeTrace reads a JSONL suite trace into its traceStats.
func summarizeTrace(r io.Reader) (traceStats, error) {
	st := traceStats{probes: map[string]map[string]int{}, spans: map[string]int{}}
	err := scanTrace(r, func(e obs.Event) {
		id, _, _ := strings.Cut(e.Scope, "/")
		switch e.Kind {
		case "probe":
			if st.probes[id] == nil {
				st.probes[id] = map[string]int{}
			}
			st.probes[id][e.Name]++
		case "span", "span_total":
			st.spans[id]++
		case "violation":
			st.violations = append(st.violations, e)
		}
	})
	return st, err
}

// TestSuiteObsByteIdentityCheap: on the fast registry cross-section,
// a fully instrumented run (streaming sink + invariant checks) must
// render text, CSV and JSON byte-identical to the uninstrumented run,
// and must record zero invariant violations.
func TestSuiteObsByteIdentityCheap(t *testing.T) {
	base := runSuite(t, SuiteConfig{Filter: cheapFilter, Workers: 4})
	var trace bytes.Buffer
	oc := &obs.Config{Sink: obs.NewJSONL(&trace), Invariants: true}
	traced := runSuite(t, SuiteConfig{Filter: cheapFilter, Workers: 4, Obs: oc})
	checkRenders(t, "instrumented vs uninstrumented", traced, renders(t, base))
	if err := scanTrace(&trace, func(e obs.Event) {
		if e.Kind == "violation" {
			t.Errorf("invariant violation in clean suite: %+v", e)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestSuiteObsByteIdentityFull: render B — eight outer workers, inner
// grants forced to 3, a streaming recorder with invariant checks —
// renders every experiment's text, CSV and JSON to the bytes of render
// A (serial, no recorder). Unlike the golden check this holds on every
// GOARCH.
func TestSuiteObsByteIdentityFull(t *testing.T) {
	a, b := renderA.get(t), renderB.get(t)
	checkRenders(t, b.label+" vs "+a.label, b.suite, renders(t, a.suite))
}

// TestSuitePhasesEveryExperiment: in render B every one of the 34
// reports carries exactly one "setup" and one "step" span — RunSuite
// opens the first, the experiment's single Ctx.Stepping call swaps it
// for the second — and no other phase.
func TestSuitePhasesEveryExperiment(t *testing.T) {
	b := renderB.get(t)
	if len(b.suite.Reports) != 34 {
		t.Fatalf("render B has %d reports, want 34", len(b.suite.Reports))
	}
	for _, r := range b.suite.Reports {
		spans := r.Summary.Spans
		for _, name := range []string{"setup", "step"} {
			if spans[name].Count != 1 {
				t.Errorf("%s: %d %q spans, want 1 (spans = %v)", r.Experiment.ID, spans[name].Count, name, spans)
			}
		}
		if _, ok := spans["render"]; ok {
			t.Errorf("%s: has a render span; findings arithmetic counts as step", r.Experiment.ID)
		}
	}
}

// TestE3Trace: a traced suite run of E3 (Figure 1's queue trace)
// streams queue-length probes, the runner's two phase spans and an
// end-of-run span_total summary, with zero violations.
func TestE3Trace(t *testing.T) {
	var trace bytes.Buffer
	oc := &obs.Config{Sink: obs.NewJSONL(&trace), Invariants: true}
	if _, err := RunSuite(SuiteConfig{Filter: regexp.MustCompile(`^E3$`), Workers: 1, Obs: oc}); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	probes := map[string]int{}
	spans := map[string]int{}
	if err := scanTrace(&trace, func(e obs.Event) {
		kinds[e.Kind]++
		switch e.Kind {
		case "probe":
			probes[e.Name]++
		case "span":
			spans[e.Name]++
		case "violation":
			t.Errorf("violation in clean E3 run: %+v", e)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if probes["des.q"] < 10 {
		t.Errorf("des.q probe sampled %d times, want ≥ 10", probes["des.q"])
	}
	if spans["setup"] != 1 || spans["step"] != 1 || len(spans) != 2 {
		t.Errorf("span events %v, want one setup and one step", spans)
	}
	if kinds["span_total"] == 0 {
		t.Error("no span_total summary events in the flushed trace")
	}
}

// checkCatalogued fails the test for every emitted probe series that
// matches no obs.Catalog() entry, reading <class> and <node> as
// wildcards for one dot-free name segment.
func checkCatalogued(t *testing.T, probes map[string]int) {
	t.Helper()
	wild := strings.NewReplacer("<class>", `[^.]+`, "<node>", `[^.]+`)
	var pats []*regexp.Regexp
	for _, p := range obs.Catalog() {
		pats = append(pats, regexp.MustCompile("^"+wild.Replace(regexp.QuoteMeta(p.Name))+"$"))
	}
	for _, name := range slices.Sorted(maps.Keys(probes)) {
		if !slices.ContainsFunc(pats, func(re *regexp.Regexp) bool { return re.MatchString(name) }) {
			t.Errorf("probe %s (sampled %d times) matches no obs.Catalog() entry", name, probes[name])
		}
	}
}

// TestE28Trace: in render B's trace the single-bottleneck kinetic run
// (E28, the density engine against the particle backend) emits the mf
// and mfp series.
func TestE28Trace(t *testing.T) {
	probes := renderB.get(t).trace.probes["E28"]
	for _, name := range []string{"mf.q", "mf.bottleneck.q", "mfp.queue"} {
		if probes[name] == 0 {
			t.Errorf("probe %s never sampled (got %v)", name, probes)
		}
	}
}

// TestE30Trace: in render B's trace the netmf E30 sweep carries span
// timings and at least three distinct probe series.
func TestE30Trace(t *testing.T) {
	b := renderB.get(t)
	if probes := b.trace.probes["E30"]; len(probes) < 3 {
		t.Errorf("%d distinct probe series, want ≥ 3 (got %v)", len(probes), probes)
	}
	if b.trace.spans["E30"] == 0 {
		t.Error("no span timing events in the trace")
	}
}

// TestProbeCatalogDocumented: every probe series in the obs catalog
// appears, by its literal name, in EXPERIMENTS.md's probe table.
func TestProbeCatalogDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)
	for _, p := range obs.Catalog() {
		if !strings.Contains(text, p.Name) {
			t.Errorf("probe %s (%s) not documented in EXPERIMENTS.md", p.Name, p.Engine)
		}
		if p.Unit == "" || p.Desc == "" {
			t.Errorf("catalog entry %s missing unit or description", p.Name)
		}
	}
}

// BenchmarkE9ObsOff pins the disabled path: E9 with a nil recorder,
// which must stay within the ≤ 1% overhead budget of the pre-obs
// baseline (every recorder call site is one inlineable nil-check
// branch — see BenchmarkDisabledRecorder in internal/obs; the
// benchmark's fp-vs-mc workload, judged by benchreport -compare,
// holds the end-to-end timing).
func BenchmarkE9ObsOff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := E9FokkerPlanckVsMonteCarlo(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9ObsOn measures the same experiment fully instrumented
// (streaming sink + per-step invariant sweeps, which add O(grid)
// mass integrals) — the price of leaving tracing on, not part of the
// disabled-path budget.
func BenchmarkE9ObsOn(b *testing.B) {
	sink := obs.NewJSONL(io.Discard)
	oc := &obs.Config{Sink: sink, Invariants: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := E9FokkerPlanckVsMonteCarlo(&Ctx{rec: oc.Recorder("E9"), inner: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
