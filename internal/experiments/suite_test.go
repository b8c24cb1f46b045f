package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"

	"fpcc/internal/obs"
)

// cheapFilter selects a fast cross-section of the registry (pure
// characteristics analysis and one short DES trace, no long DES/PDE
// runs) for tests that run the suite repeatedly, so `go test -short`
// still renders and alarm-checks every experiment it selects.
var cheapFilter = regexp.MustCompile(`^E(1|2|3|8|15)$`)

func runSuite(t *testing.T, workers int, filter *regexp.Regexp) *Suite {
	t.Helper()
	suite, err := RunSuite(SuiteConfig{Filter: filter, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return suite
}

func renderSuite(t *testing.T, workers int, filter *regexp.Regexp) (text, csv, js string) {
	t.Helper()
	suite := runSuite(t, workers, filter)
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
	return tb.String(), cb.String(), jb.String()
}

// goldenPath is the behaviour spec of the whole registry: the sha256
// of every experiment's text, CSV and JSON render, one
// "<sha256>  <id>.<txt|csv|json>" line each.
const goldenPath = "testdata/golden.sha256"

// goldenArch is the only GOARCH the goldens hold for. Elsewhere the
// compiler may fuse a*b+c into one FMA instruction, which rounds once
// instead of twice and moves the last digits of the renders.
const goldenArch = "amd64"

var update = flag.Bool("update", false, "rewrite "+goldenPath+" from render A of the full suite")

// renderSums returns one golden line per experiment and render format
// of the suite, in registry order.
func renderSums(t *testing.T, s *Suite) []string {
	t.Helper()
	var lines []string
	for i, r := range s.Reports {
		one := &Suite{Reports: s.Reports[i : i+1]}
		for _, f := range []struct {
			ext   string
			write func(io.Writer) error
		}{{"txt", one.WriteText}, {"csv", one.WriteCSV}, {"json", one.WriteJSON}} {
			h := sha256.New()
			if err := f.write(h); err != nil {
				t.Fatal(err)
			}
			lines = append(lines, fmt.Sprintf("%x  %s.%s", h.Sum(nil), r.Experiment.ID, f.ext))
		}
	}
	return lines
}

// parseSums maps render name → digest over golden lines, skipping
// blank lines and # comments.
func parseSums(t *testing.T, lines []string) map[string]string {
	t.Helper()
	sums := map[string]string{}
	for _, line := range lines {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed golden line %q", line)
		}
		sums[fields[1]] = fields[0]
	}
	return sums
}

// readGolden parses the golden file into render name → digest.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./internal/experiments -run TestSuiteDeterministicAcrossWorkers -update)", err)
	}
	return parseSums(t, strings.Split(string(raw), "\n"))
}

// checkSums fails the test for every render of lines whose digest
// differs from want's.
func checkSums(t *testing.T, label string, lines []string, want map[string]string) {
	t.Helper()
	for _, line := range lines {
		sum, name, _ := strings.Cut(line, "  ")
		if want[name] != sum {
			t.Errorf("%s: %s renders to sha256 %s, want %q", label, name, sum, want[name])
		}
	}
}

// fullRender is one full-suite render, run at most once per test
// binary and shared by every test that reads it.
type fullRender struct {
	label        string
	outer, inner int
	traced       bool

	once  sync.Once
	suite *Suite
	trace traceStats // traced renders only
	err   error
}

// The suite's two full renders. Between them they vary every axis the
// determinism contract names: outer workers 1 and 8, inner grants 1
// and forced 3, recorder absent and streaming with invariants on.
var (
	renderA = &fullRender{label: "render A (outer 1, inner 1, no recorder)", outer: 1, inner: 1}
	renderB = &fullRender{label: "render B (outer 8, inner 3, traced with invariants)", outer: 8, inner: 3, traced: true}
)

// get returns the render, running it on first use; it skips under
// -short.
func (r *fullRender) get(t *testing.T) *fullRender {
	t.Helper()
	if testing.Short() {
		t.Skip("renders the full experiment suite")
	}
	r.once.Do(func() {
		SetInnerWorkers(r.inner)
		defer SetInnerWorkers(0)
		cfg := SuiteConfig{Workers: r.outer}
		var trace bytes.Buffer
		if r.traced {
			cfg.Obs = &obs.Config{Sink: obs.NewJSONL(&trace), Invariants: true}
		}
		if r.suite, r.err = RunSuite(cfg); r.err == nil && r.traced {
			r.trace, r.err = summarizeTrace(&trace)
		}
	})
	if r.err != nil {
		t.Fatalf("%s: %v", r.label, r.err)
	}
	return r
}

// report returns the render's report of experiment id.
func (r *fullRender) report(t *testing.T, id string) Report {
	t.Helper()
	for _, rep := range r.suite.Reports {
		if rep.Experiment.ID == id {
			return rep
		}
	}
	t.Fatalf("%s has no report for %s", r.label, id)
	return Report{}
}

// TestSuiteDeterministicAcrossWorkers is the registry's behaviour
// spec: renders A and B must each render every experiment's text,
// CSV and JSON to the digests committed in testdata/golden.sha256
// (on amd64; TestSuiteObsByteIdentityFull holds B to A everywhere).
// Render A raises no alarm and every report states a finding; render
// B's trace records no invariant violation and every probe series it
// emits is catalogued. Run with -update to rewrite the golden file
// from render A.
func TestSuiteDeterministicAcrossWorkers(t *testing.T) {
	a := renderA.get(t)
	sumsA := renderSums(t, a.suite)
	if *update {
		if runtime.GOARCH != goldenArch {
			t.Fatalf("the goldens hold for GOARCH=%s only; refusing to rewrite them on %s", goldenArch, runtime.GOARCH)
		}
		body := "# sha256 of each experiment's text, CSV and JSON render, valid for GOARCH=" + goldenArch + ".\n" +
			"# Regenerate with: go test ./internal/experiments -run TestSuiteDeterministicAcrossWorkers -update\n" +
			strings.Join(sumsA, "\n") + "\n"
		if err := os.WriteFile(goldenPath, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b := renderB.get(t)
	if runtime.GOARCH == goldenArch {
		want := readGolden(t)
		if len(want) != 3*len(All()) {
			t.Errorf("golden file has %d entries, want %d (3 renders × %d experiments)", len(want), 3*len(All()), len(All()))
		}
		checkSums(t, a.label, sumsA, want)
		checkSums(t, b.label, renderSums(t, b.suite), want)
	} else {
		t.Logf("GOARCH=%s: the goldens hold for %s only (other architectures may fuse multiply-adds into FMA instructions); skipping the golden check", runtime.GOARCH, goldenArch)
	}

	var text bytes.Buffer
	if err := a.suite.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, e := range All() {
		if !strings.Contains(text.String(), e.ID+" — ") {
			t.Errorf("text output missing table %s", e.ID)
		}
	}
	if alarms := a.suite.Alarms(); len(alarms) != 0 {
		t.Errorf("%s alarmed: %v", a.label, alarms)
	}
	for _, r := range a.suite.Reports {
		if len(r.Table.Findings) == 0 {
			t.Errorf("%s: no findings recorded", r.Experiment.ID)
		}
	}

	for _, v := range b.trace.violations {
		t.Errorf("invariant violation in %s: %+v", b.label, v)
	}
	all := map[string]int{}
	for _, probes := range b.trace.probes {
		for name, n := range probes {
			all[name] += n
		}
	}
	checkCatalogued(t, all)
	t.Logf("%s: %d probe series from %d experiments, %d violations", b.label, len(all), len(b.trace.probes), len(b.trace.violations))
}

// renders returns the text, CSV and JSON of the render's report of
// experiment id, in that order.
func (r *fullRender) renders(t *testing.T, id string) [3]string {
	t.Helper()
	one := &Suite{Reports: []Report{r.report(t, id)}}
	var out [3]string
	for i, write := range []func(io.Writer) error{one.WriteText, one.WriteCSV, one.WriteJSON} {
		var b strings.Builder
		if err := write(&b); err != nil {
			t.Fatal(err)
		}
		out[i] = b.String()
	}
	return out
}

// checkAcrossRenders fails the test unless renders A and B render
// each experiment of ids to identical text, CSV and JSON, and unless
// A's table of it raises no alarm. Between them the two renders swing
// the outer workers (1 vs 8), the inner grant that bounds the sweep
// cells, particle chunks and solver sweeps (1 vs 3) and the recorder
// (absent vs streaming with invariants), so any scheduling or
// instrumentation dependence in those experiments shows up as a diff.
func checkAcrossRenders(t *testing.T, ids ...string) {
	t.Helper()
	a, b := renderA.get(t), renderB.get(t)
	for _, id := range ids {
		ra, rb := a.renders(t, id), b.renders(t, id)
		if ra[0] != rb[0] {
			t.Errorf("%s text differs between renders:\n--- %s\n%s\n--- %s\n%s", id, a.label, ra[0], b.label, rb[0])
		}
		if ra[1] != rb[1] {
			t.Errorf("%s CSV differs between %s and %s", id, a.label, b.label)
		}
		if ra[2] != rb[2] {
			t.Errorf("%s JSON differs between %s and %s", id, a.label, b.label)
		}
		if alarm := a.report(t, id).Table.Alarm(); alarm != "" {
			t.Errorf("%s alarmed: %s", id, alarm)
		}
	}
}

// TestE9E10TablesDeterministicAcrossInnerWorkers: the Fokker-Planck
// solver sweeps and Monte-Carlo chunks behind E9 and E10 render the
// same bytes at inner grant 1 (render A) and 3 (render B).
func TestE9E10TablesDeterministicAcrossInnerWorkers(t *testing.T) {
	checkAcrossRenders(t, "E9", "E10")
}

// TestMeanFieldTablesDeterministicAcrossWorkers: both parallel layers
// under E28/E29 — the sweep cell pool and the particle chunk pool —
// render the same bytes in renders A and B.
func TestMeanFieldTablesDeterministicAcrossWorkers(t *testing.T) {
	checkAcrossRenders(t, "E28", "E29")
}

// TestNetmfTablesDeterministicAcrossWorkers: the networked mean-field
// sweeps E30/E31 draw no random numbers, so a diff between renders A
// and B would be an aggregation-order bug in the sweep runner.
func TestNetmfTablesDeterministicAcrossWorkers(t *testing.T) {
	checkAcrossRenders(t, "E30", "E31")
}

// TestChurnTablesDeterministicAcrossWorkers: the adversarial/churn
// sweeps E32–E34 (density engines, and E33's packet simulations seeded
// per cell) render the same bytes in renders A and B.
func TestChurnTablesDeterministicAcrossWorkers(t *testing.T) {
	checkAcrossRenders(t, "E32", "E33", "E34")
}

// TestSuiteDeterministicCheap covers the same determinism contract on
// a fast subset, so `go test -short` still exercises it.
func TestSuiteDeterministicCheap(t *testing.T) {
	st, sc, sj := renderSuite(t, 1, cheapFilter)
	pt, pc, pj := renderSuite(t, 8, cheapFilter)
	if st != pt || sc != pc || sj != pj {
		t.Error("suite output differs between 1 worker and 8 workers")
	}
	if !strings.Contains(sc, "# E1 — ") || !strings.Contains(sc, "# => ") {
		t.Errorf("CSV missing caption/finding comments:\n%s", sc)
	}
}

// TestSuiteSelect: filters match on id, title and tag; empty
// selections are an error from RunSuite.
func TestSuiteSelect(t *testing.T) {
	if got := Select(nil); len(got) != 34 {
		t.Fatalf("nil filter selects %d, want 34", len(got))
	}
	byID := Select(regexp.MustCompile(`^E19$`))
	if len(byID) != 1 || byID[0].ID != "E19" {
		t.Fatalf("id filter selected %+v", byID)
	}
	byTag := Select(regexp.MustCompile(`^netsim$`))
	if len(byTag) != 3 {
		t.Fatalf("netsim tag selects %d experiments, want 3", len(byTag))
	}
	byTitle := Select(regexp.MustCompile(`Tahoe`))
	if len(byTitle) != 1 || byTitle[0].ID != "E21" {
		t.Fatalf("title filter selected %+v", byTitle)
	}
	if _, err := RunSuite(SuiteConfig{Filter: regexp.MustCompile(`^nothing-matches$`)}); err == nil {
		t.Fatal("empty selection accepted")
	}
}

// TestSuiteResourcesSerialOnly: a one-worker instrumented run puts
// each experiment's own resource delta on its report's summary; under
// two outer workers the process-wide counters would mix experiments,
// so no report carries one.
func TestSuiteResourcesSerialOnly(t *testing.T) {
	serial, err := RunSuite(SuiteConfig{Filter: cheapFilter, Workers: 1, Obs: &obs.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range serial.Reports {
		if res := r.Summary.Resources; res == nil || res.WallSeconds <= 0 {
			t.Errorf("%s at one worker: resources %+v, want a positive wall time", r.Experiment.ID, res)
		}
	}
	parallel, err := RunSuite(SuiteConfig{Filter: cheapFilter, Workers: 2, Obs: &obs.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range parallel.Reports {
		if r.Summary.Resources != nil {
			t.Errorf("%s at two workers carries resources %+v", r.Experiment.ID, r.Summary.Resources)
		}
	}
	if len(parallel.Alarms()) != 0 {
		t.Errorf("cheap suite alarmed: %v", parallel.Alarms())
	}
}

// TestTablePrecision: the aligned text keeps %.4g while CSV and JSON
// carry full-precision values (the AddRow lossiness fix).
func TestTablePrecision(t *testing.T) {
	tb := &Table{ID: "T", Caption: "precision", Columns: []string{"x", "v", "s"}}
	third := 1.0 / 3.0
	tb.AddRow(third, []float64{1.5, third}, "a,b")
	tb.AddFinding("ok")
	if tb.Rows[0][0] != "0.3333" {
		t.Errorf("text cell = %q, want %%.4g rendering 0.3333", tb.Rows[0][0])
	}
	var cb bytes.Buffer
	if err := tb.WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	csv := cb.String()
	for _, want := range []string{"# T — precision", "x,v,s", "0.3333333333333333", "1.5;0.3333333333333333", `"a,b"`, "# => ok"} {
		if !strings.Contains(csv, want) {
			t.Errorf("CSV missing %q:\n%s", want, csv)
		}
	}
	js, err := json.Marshal(tb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(js), "0.3333333333333333") {
		t.Errorf("JSON not full precision: %s", js)
	}
	// Non-finite values must not break JSON encoding (E24 reports a
	// NaN difference-mode rate for n=1).
	nan := &Table{ID: "N", Columns: []string{"v"}}
	nan.AddRow(math.NaN())
	if _, err := json.Marshal(nan); err != nil {
		t.Fatalf("NaN row does not marshal: %v", err)
	}
}
