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
	"testing"
	"time"
)

// cheapFilter selects a fast cross-section of the registry (pure
// characteristics analysis, no long DES/PDE runs) for tests that run
// the suite repeatedly.
var cheapFilter = regexp.MustCompile(`^E(1|2|8|15)$`)

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

var update = flag.Bool("update", false, "rewrite "+goldenPath+" from a workers-1 run of the full suite")

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

// readGolden parses the golden file into render name → digest.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./internal/experiments -run TestSuiteDeterministicAcrossWorkers -update)", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed golden line %q", line)
		}
		want[fields[1]] = fields[0]
	}
	return want
}

// TestSuiteDeterministicAcrossWorkers is the registry's behaviour
// spec: the full suite, run serially and run on 8 workers, must
// render every experiment's text, CSV and JSON to the digests
// committed in testdata/golden.sha256. Run with -update to rewrite
// the file from the serial run.
func TestSuiteDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment suite twice")
	}
	if runtime.GOARCH != goldenArch {
		t.Skipf("the goldens hold for GOARCH=%s only: other architectures may fuse multiply-adds into FMA instructions", goldenArch)
	}
	serial := runSuite(t, 1, nil)
	if *update {
		body := "# sha256 of each experiment's text, CSV and JSON render, valid for GOARCH=" + goldenArch + ".\n" +
			"# Regenerate with: go test ./internal/experiments -run TestSuiteDeterministicAcrossWorkers -update\n" +
			strings.Join(renderSums(t, serial), "\n") + "\n"
		if err := os.WriteFile(goldenPath, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := readGolden(t)
	if len(want) != 3*len(All()) {
		t.Errorf("golden file has %d entries, want %d (3 renders × %d experiments)", len(want), 3*len(All()), len(All()))
	}
	for _, run := range []struct {
		workers int
		suite   *Suite
	}{{1, serial}, {8, runSuite(t, 8, nil)}} {
		for _, line := range renderSums(t, run.suite) {
			sum, name, _ := strings.Cut(line, "  ")
			if want[name] != sum {
				t.Errorf("workers %d: %s renders to sha256 %s, golden has %q", run.workers, name, sum, want[name])
			}
		}
	}
	var text bytes.Buffer
	if err := serial.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, e := range All() {
		if !strings.Contains(text.String(), e.ID+" — ") {
			t.Errorf("text output missing table %s", e.ID)
		}
	}
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

// TestSuiteBenchJSON: the timing report decodes, covers every report,
// and records the worker bound.
func TestSuiteBenchJSON(t *testing.T) {
	suite, err := RunSuite(SuiteConfig{Filter: cheapFilter, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := suite.WriteBenchJSON(&buf, 2, 123*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	var rep BenchReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("bench JSON does not decode: %v", err)
	}
	if rep.Workers != 2 {
		t.Errorf("workers = %d, want 2", rep.Workers)
	}
	if rep.TotalSeconds != 0.123 {
		t.Errorf("total = %v, want 0.123", rep.TotalSeconds)
	}
	if len(rep.Experiments) != len(suite.Reports) {
		t.Fatalf("%d timing entries for %d reports", len(rep.Experiments), len(suite.Reports))
	}
	for i, e := range rep.Experiments {
		if e.ID != suite.Reports[i].Experiment.ID || e.Title == "" {
			t.Errorf("entry %d = %+v", i, e)
		}
		if e.Seconds < 0 {
			t.Errorf("%s has negative elapsed %v", e.ID, e.Seconds)
		}
	}
	if len(suite.Alarms()) != 0 {
		t.Errorf("cheap suite alarmed: %v", suite.Alarms())
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
