package experiments

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
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

func runSuite(t *testing.T, cfg SuiteConfig) *Suite {
	t.Helper()
	suite, err := RunSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return suite
}

// goldenDir is the behaviour spec of the whole registry: every
// experiment's text, CSV and JSON render, committed as <id>.txt,
// <id>.csv and <id>.json.
const goldenDir = "testdata/golden"

// goldenArch is the only GOARCH the goldens hold for. Elsewhere the
// compiler may fuse a*b+c into one FMA instruction, which rounds once
// instead of twice and moves the last digits of the renders.
const goldenArch = "amd64"

const regenerate = "regenerate with: go test ./internal/experiments -run TestSuiteDeterministicAcrossWorkers -update"

var update = flag.Bool("update", false, "rewrite "+goldenDir+" from render A of the full suite")

// formats are a report's three renders, by golden file extension.
var formats = []struct {
	ext   string
	write func(*Suite, io.Writer) error
}{{"txt", (*Suite).WriteText}, {"csv", (*Suite).WriteCSV}, {"json", (*Suite).WriteJSON}}

// renderReport returns one report's render, the bytes benchreport
// -only writes for it.
func renderReport(t *testing.T, r Report, write func(*Suite, io.Writer) error) string {
	t.Helper()
	var b strings.Builder
	if err := write(&Suite{Reports: []Report{r}}, &b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// renders returns every render of the suite, keyed by golden file
// name.
func renders(t *testing.T, s *Suite) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, r := range s.Reports {
		for _, f := range formats {
			out[r.Experiment.ID+"."+f.ext] = renderReport(t, r, f.write)
		}
	}
	return out
}

// readGoldens returns the committed renders, keyed by file name. The
// directory must hold exactly three files per registered experiment:
// the test stops after naming every stray and every missing file.
func readGoldens(t *testing.T) map[string]string {
	t.Helper()
	names := map[string]bool{}
	for _, e := range All() {
		for _, f := range formats {
			names[e.ID+"."+f.ext] = true
		}
	}
	entries, err := os.ReadDir(goldenDir)
	if err != nil {
		t.Fatalf("%v (%s)", err, regenerate)
	}
	want, bad := map[string]string{}, false
	for _, e := range entries {
		if !names[e.Name()] {
			t.Errorf("%s/%s is stray: no registered experiment renders it", goldenDir, e.Name())
			bad = true
			continue
		}
		raw, err := os.ReadFile(filepath.Join(goldenDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		want[e.Name()] = string(raw)
	}
	for _, e := range All() {
		for _, f := range formats {
			if _, ok := want[e.ID+"."+f.ext]; !ok {
				t.Errorf("%s/%s.%s is missing (%s)", goldenDir, e.ID, f.ext, regenerate)
				bad = true
			}
		}
	}
	if bad {
		t.FailNow()
	}
	return want
}

// checkRenders is the package's one render check: it fails the test
// for every report of got whose render differs from the render of the
// same name in want, a golden file or another suite's report, and
// says where the two first differ.
func checkRenders(t *testing.T, label string, got *Suite, want map[string]string) {
	t.Helper()
	for _, r := range got.Reports {
		for _, f := range formats {
			name := r.Experiment.ID + "." + f.ext
			w, ok := want[name]
			if !ok {
				t.Errorf("%s: %s: no wanted render to compare with", label, name)
				continue
			}
			if g := renderReport(t, r, f.write); g != w {
				t.Errorf("%s: %s differs at %s", label, name, firstDiff(f.ext, g, w))
			}
		}
	}
}

// firstDiff says where got first differs from want: for CSV the data
// row, its column header and both cells, else (and for a CSV whose
// cells agree but whose caption or findings moved) the line number and
// both lines.
func firstDiff(ext, got, want string) string {
	if ext == "csv" {
		if d := csvDiff(got, want); d != "" {
			return d
		}
	}
	// got != want, so some line differs and the loop returns.
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; ; i++ {
		if gl, wl := quoteAt(g, i), quoteAt(w, i); gl != wl {
			return fmt.Sprintf("line %d: got %s, want %s", i+1, gl, wl)
		}
	}
}

// quoteAt returns xs[i] quoted, or "nothing" past the end of xs.
func quoteAt(xs []string, i int) string {
	if i >= len(xs) {
		return "nothing"
	}
	return fmt.Sprintf("%q", xs[i])
}

// csvRecord is one parsed CSV record and the render line it starts on.
type csvRecord struct {
	line   int
	fields []string
}

// csvRecords parses a CSV render; the '#' caption and finding lines
// are comments, not records.
func csvRecords(s string) ([]csvRecord, error) {
	r := csv.NewReader(strings.NewReader(s))
	r.Comment = '#'
	r.FieldsPerRecord = -1
	var out []csvRecord
	for {
		fields, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		line, _ := r.FieldPos(0)
		out = append(out, csvRecord{line, fields})
	}
}

// csvDiff names the first CSV cell of got that differs from want's,
// or returns "" when both parse to the same records. Record 0 is the
// column header and record k the k-th data row.
func csvDiff(got, want string) string {
	g, gerr := csvRecords(got)
	w, werr := csvRecords(want)
	if gerr != nil || werr != nil {
		return ""
	}
	var header []string
	if len(w) > 0 {
		header = w[0].fields
	}
	for i := range max(len(g), len(w)) {
		var gf, wf []string
		var line int
		if i < len(g) {
			gf, line = g[i].fields, g[i].line
		}
		if i < len(w) {
			wf, line = w[i].fields, w[i].line
		}
		for j := range max(len(gf), len(wf)) {
			gc, wc := quoteAt(gf, j), quoteAt(wf, j)
			if gc == wc {
				continue
			}
			row, col := "header", fmt.Sprintf("column %d", j+1)
			if i > 0 {
				row = fmt.Sprintf("row %d", i)
			}
			if j < len(header) {
				col = fmt.Sprintf("column %q", header[j])
			}
			return fmt.Sprintf("%s (line %d), %s: got %s, want %s", row, line, col, gc, wc)
		}
	}
	return ""
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
// spec: render A raises no alarm and every report states a finding;
// render B's trace records no invariant violation and every probe
// series it emits is catalogued; and on amd64 renders A and B render
// every experiment's text, CSV and JSON to the bytes committed in
// testdata/golden (TestSuiteObsByteIdentityFull holds B to A
// everywhere). Run with -update to rewrite the golden files from
// render A.
func TestSuiteDeterministicAcrossWorkers(t *testing.T) {
	a := renderA.get(t)
	if *update {
		if runtime.GOARCH != goldenArch {
			t.Fatalf("the goldens hold for GOARCH=%s only; refusing to rewrite them on %s", goldenArch, runtime.GOARCH)
		}
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, body := range renders(t, a.suite) {
			if err := os.WriteFile(filepath.Join(goldenDir, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	b := renderB.get(t)

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

	if runtime.GOARCH != goldenArch {
		t.Logf("GOARCH=%s: the goldens hold for %s only (other architectures may fuse multiply-adds into FMA instructions); skipping the golden check", runtime.GOARCH, goldenArch)
		return
	}
	want := readGoldens(t)
	checkRenders(t, a.label+" vs "+goldenDir, a.suite, want)
	checkRenders(t, b.label+" vs "+goldenDir, b.suite, want)
}

// TestSuiteDeterministicCheap covers the same determinism contract on
// a fast subset, so `go test -short` still exercises it: the subset
// renders the same at 1 and 8 workers and, on amd64, to the goldens.
func TestSuiteDeterministicCheap(t *testing.T) {
	serial := runSuite(t, SuiteConfig{Filter: cheapFilter, Workers: 1})
	wide := runSuite(t, SuiteConfig{Filter: cheapFilter, Workers: 8})
	serialRenders := renders(t, serial)
	checkRenders(t, "cheap subset at 8 workers vs 1", wide, serialRenders)
	if runtime.GOARCH == goldenArch {
		checkRenders(t, "cheap subset vs "+goldenDir, serial, readGoldens(t))
	}
	if csv := serialRenders["E1.csv"]; !strings.Contains(csv, "# E1 — ") || !strings.Contains(csv, "# => ") {
		t.Errorf("CSV missing caption/finding comments:\n%s", csv)
	}
}

// TestFirstDiff: a moved CSV cell is named by its data row, column
// header and both values, even in a quoted field that holds a comma;
// a missing row, a moved finding and a moved text line are named by
// their line.
func TestFirstDiff(t *testing.T) {
	const csv = "# E0 — caption\nx,\"v, q\"\n1,\"a, b\"\n2,3\n# => finding\n"
	for _, c := range []struct{ ext, got, want, msg string }{
		{"csv", strings.Replace(csv, `"a, b"`, `"a, c"`, 1), csv, `row 1 (line 3), column "v, q": got "a, c", want "a, b"`},
		{"csv", strings.Replace(csv, "2,3\n", "", 1), csv, `row 2 (line 4), column "x": got nothing, want "2"`},
		{"csv", strings.Replace(csv, "finding", "moved", 1), csv, `line 5: got "# => moved", want "# => finding"`},
		{"txt", "a  \nb\n", "a\nb\n", `line 1: got "a  ", want "a"`},
	} {
		if msg := firstDiff(c.ext, c.got, c.want); msg != c.msg {
			t.Errorf("%s: firstDiff = %s, want %s", c.ext, msg, c.msg)
		}
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
