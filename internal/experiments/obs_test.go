package experiments

import (
	"bufio"
	"bytes"
	"encoding/json"
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
// layer: attaching a recorder must never change a rendered byte, the
// instrumented heavy experiments must report setup/step/render phase
// breakdowns, traced runs must stream parseable JSONL with the
// documented probe series, and every catalogued probe must appear in
// EXPERIMENTS.md.

// renderSuiteObs renders the selected suite with an explicit obs
// configuration (nil = uninstrumented) and returns the three
// deterministic renderings plus the suite itself.
func renderSuiteObs(t *testing.T, filter *regexp.Regexp, oc *obs.Config) (text, csv, js string, suite *Suite) {
	t.Helper()
	suite, err := RunSuite(SuiteConfig{Filter: filter, Workers: 4, Obs: oc})
	if err != nil {
		t.Fatal(err)
	}
	var tb, cb, jb bytes.Buffer
	if err := suite.WriteText(&tb); err != nil {
		t.Fatal(err)
	}
	if err := suite.WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	if err := suite.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	return tb.String(), cb.String(), jb.String(), suite
}

// parseTrace decodes every line of a JSONL trace, failing the test on
// the first malformed line, and returns the events.
func parseTrace(t *testing.T, buf *bytes.Buffer) []obs.Event {
	t.Helper()
	var evs []obs.Event
	sc := bufio.NewScanner(buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var e obs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("trace line %q does not decode: %v", sc.Text(), err)
		}
		evs = append(evs, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return evs
}

// TestSuiteObsByteIdentityCheap: on the fast registry cross-section,
// a fully instrumented run (streaming sink + invariant checks) must
// render text, CSV and JSON byte-identical to the uninstrumented run,
// and must record zero invariant violations.
func TestSuiteObsByteIdentityCheap(t *testing.T) {
	bt, bc, bj, _ := renderSuiteObs(t, cheapFilter, nil)
	var trace bytes.Buffer
	oc := &obs.Config{Sink: obs.NewJSONL(&trace), Invariants: true}
	it, ic, ij, _ := renderSuiteObs(t, cheapFilter, oc)
	if bt != it {
		t.Error("text output differs with obs enabled")
	}
	if bc != ic {
		t.Error("CSV output differs with obs enabled")
	}
	if bj != ij {
		t.Error("JSON output differs with obs enabled")
	}
	for _, e := range parseTrace(t, &trace) {
		if e.Kind == "violation" {
			t.Errorf("invariant violation in clean suite: %+v", e)
		}
	}
}

// TestSuiteObsByteIdentityFull is the satellite's acceptance
// criterion: the FULL 31-experiment registry renders byte-identical
// with observability (sink + invariants) enabled versus absent.
func TestSuiteObsByteIdentityFull(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment suite twice")
	}
	bt, bc, bj, _ := renderSuiteObs(t, nil, nil)
	var trace bytes.Buffer
	oc := &obs.Config{Sink: obs.NewJSONL(&trace), Invariants: true}
	it, ic, ij, _ := renderSuiteObs(t, nil, oc)
	if bt != it {
		t.Error("full-suite text output differs with obs enabled")
	}
	if bc != ic {
		t.Error("full-suite CSV output differs with obs enabled")
	}
	if bj != ij {
		t.Error("full-suite JSON output differs with obs enabled")
	}
	violations := 0
	for _, e := range parseTrace(t, &trace) {
		if e.Kind == "violation" {
			violations++
			t.Errorf("invariant violation in clean suite: %+v", e)
		}
	}
	t.Logf("full instrumented suite: %d violations", violations)
}

// TestSuitePhaseBreakdown: an instrumented heavy experiment reports
// its setup/step/render span totals through Report.Phases and the
// versioned bench JSON artifact.
func TestSuitePhaseBreakdown(t *testing.T) {
	if testing.Short() {
		t.Skip("runs E9 (Fokker-Planck vs Monte-Carlo)")
	}
	suite, err := RunSuite(SuiteConfig{
		Filter:  regexp.MustCompile(`^E9$`),
		Workers: 1,
		Obs:     &obs.Config{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(suite.Reports) != 1 {
		t.Fatalf("selected %d reports, want 1", len(suite.Reports))
	}
	phases := suite.Reports[0].Phases
	for _, name := range []string{"setup", "step", "render"} {
		if phases[name] <= 0 {
			t.Errorf("phase %q missing from report (phases = %v)", name, phases)
		}
	}
	if phases["step"] < phases["render"] {
		t.Errorf("step phase (%v s) shorter than render (%v s) — span placement suspect", phases["step"], phases["render"])
	}
	var buf bytes.Buffer
	if err := suite.WriteBenchJSON(&buf, 1, suite.Reports[0].Elapsed); err != nil {
		t.Fatal(err)
	}
	var rep BenchReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != BenchSchema {
		t.Errorf("bench schema = %q, want %q", rep.Schema, BenchSchema)
	}
	if len(rep.Experiments) != 1 || rep.Experiments[0].Phases["step"] <= 0 {
		t.Errorf("bench entry missing phase breakdown: %+v", rep.Experiments)
	}
}

// TestE3Trace: a traced DES run (E3, Figure 1's queue trace) streams
// queue-length probes, phase spans and an end-of-run span_total
// summary, with zero violations.
func TestE3Trace(t *testing.T) {
	var trace bytes.Buffer
	sink := obs.NewJSONL(&trace)
	rec := (&obs.Config{Sink: sink, Invariants: true}).Recorder("E3")
	if _, err := E3QueueTrace(NewCtx(rec, 1)); err != nil {
		t.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	probes := map[string]int{}
	for _, e := range parseTrace(t, &trace) {
		kinds[e.Kind]++
		if e.Kind == "probe" {
			probes[e.Name]++
		}
		if e.Kind == "violation" {
			t.Errorf("violation in clean E3 run: %+v", e)
		}
	}
	if probes["des.q"] < 10 {
		t.Errorf("des.q probe sampled %d times, want ≥ 10", probes["des.q"])
	}
	if kinds["span"] < 3 {
		t.Errorf("%d span events, want ≥ 3 (setup/step/render)", kinds["span"])
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

// traceProbes runs one experiment with a streaming sink and invariant
// checks on, failing the test on any violation, and returns the count
// of samples per probe series plus the number of span events.
func traceProbes(t *testing.T, id string, run func(*Ctx) (*Table, error)) (probes map[string]int, spans int) {
	t.Helper()
	var trace bytes.Buffer
	rec := (&obs.Config{Sink: obs.NewJSONL(&trace), Invariants: true}).Recorder(id)
	if _, err := run(NewCtx(rec, 1)); err != nil {
		t.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	probes = map[string]int{}
	for _, e := range parseTrace(t, &trace) {
		switch e.Kind {
		case "probe":
			probes[e.Name]++
		case "span", "span_total":
			spans++
		case "violation":
			t.Errorf("violation in clean %s run: %+v", id, e)
		}
	}
	if rec.Violations() != 0 {
		t.Errorf("recorder counted %d violations", rec.Violations())
	}
	return probes, spans
}

// TestE28Trace: a traced single-bottleneck kinetic run (E28, the
// density engine against the particle backend) emits the mf and mfp
// series, every one of them catalogued, with zero violations.
func TestE28Trace(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the E28 convergence study")
	}
	probes, _ := traceProbes(t, "E28", E28MeanFieldConvergence)
	for _, name := range []string{"mf.q", "mf.bottleneck.q", "mfp.queue"} {
		if probes[name] == 0 {
			t.Errorf("probe %s never sampled (got %v)", name, probes)
		}
	}
	checkCatalogued(t, probes)
}

// TestE30Trace is the end-to-end acceptance check at the experiment
// layer: a traced netmf E30 run emits parseable JSONL carrying span
// timings and at least three distinct probe series, every one of them
// catalogued, with zero invariant violations.
func TestE30Trace(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the E30 parking-lot sweep")
	}
	probes, spans := traceProbes(t, "E30", E30ParkingLotLargeN)
	if len(probes) < 3 {
		t.Errorf("%d distinct probe series, want ≥ 3 (got %v)", len(probes), probes)
	}
	if spans == 0 {
		t.Error("no span timing events in the trace")
	}
	checkCatalogued(t, probes)
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
// benchreport -baseline gate holds the absolute timing).
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
		if _, err := E9FokkerPlanckVsMonteCarlo(NewCtx(oc.Recorder("E9"), 1)); err != nil {
			b.Fatal(err)
		}
	}
}
