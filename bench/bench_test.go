package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"fpcc/internal/experiments"
)

func TestWorkloadsRegisteredAndCovered(t *testing.T) {
	registered := map[string]bool{}
	for _, e := range experiments.All() {
		registered[e.ID] = true
	}
	want, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, id := range w.ids {
			if !registered[id] {
				t.Errorf("workload %s names %s, which is not in the registry", w.name, id)
			}
			if want[id] == "" {
				t.Errorf("workload %s names %s, which the manifest does not cover (go run . -update)", w.name, id)
			}
		}
	}
	if ids := manifestIDs(); len(want) != len(ids) {
		t.Errorf("manifest has %d entries, want %d (%v)", len(want), len(ids), ids)
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Why string }
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	check := func(kind string, defs []metricDef, got []entry) {
		t.Helper()
		if len(defs) != len(got) {
			t.Errorf("%s: the benchmark emits %d metrics, BENCHMARK.json lists %d", kind, len(defs), len(got))
		}
		listed := map[string]string{}
		for _, e := range got {
			listed[e.Name] = e.Unit
		}
		for _, d := range defs {
			if !valid.MatchString(d.name) {
				t.Errorf("%s: metric name %q has characters outside [A-Za-z0-9_.-]", kind, d.name)
			}
			if unit, ok := listed[d.name]; !ok {
				t.Errorf("%s: %s is emitted but not in BENCHMARK.json", kind, d.name)
			} else if unit != d.unit {
				t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", kind, d.name, d.unit, unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%s), the benchmark %q (%s)", i, got.Name, got.Why, w.name, w.why)
		}
	}
}

func TestPercentilesWithholdP99BelowThousand(t *testing.T) {
	xs := make([]float64, minP99Samples-1)
	for i := range xs {
		xs[i] = float64(len(xs) - i) // descending, so the helpers must sort
	}
	if v, ok := p99(xs); ok {
		t.Fatalf("p99 of %d samples reported as %v, want it withheld", len(xs), v)
	}
	xs = append(xs, minP99Samples)
	if v, ok := p99(xs); !ok || math.Abs(v-990.01) > 1e-9 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990.01, true", v, ok)
	}
}

func TestSelfTimeSubtractsChildSpans(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 1 * ms, End: 3 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 2 * ms, End: 5 * ms}, // overlaps a: counted once
		{ID: 4, Parent: 2, Name: "c", Start: 1500 * time.Microsecond, End: 2 * ms},
		{ID: 5, Name: "root2", Start: 11 * ms, End: 12 * ms},
	}
	want := []time.Duration{6 * ms, 1500 * time.Microsecond, 3 * ms, 500 * time.Microsecond, 1 * ms}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestHashCheck(t *testing.T) {
	if runtime.GOARCH != pinnedArch {
		t.Skipf("the manifest holds for GOARCH=%s only", pinnedArch)
	}
	suite, err := experiments.RunSuite(experiments.SuiteConfig{Filter: idFilter([]string{"E1"}), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	want, err := parseManifest(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if bad := checkOutputs(suite.Reports, want); len(bad) != 0 {
		t.Fatalf("E1 fails its manifest entry: %v", bad)
	}

	sum := want["E1"]
	flipped := "0"
	if sum[0] == '0' {
		flipped = "1"
	}
	corrupted, err := parseManifest(strings.NewReader(strings.Replace(string(raw), sum, flipped+sum[1:], 1)))
	if err != nil {
		t.Fatal(err)
	}
	if bad := checkOutputs(suite.Reports, corrupted); len(bad) != 1 {
		t.Fatalf("corrupted E1 line: got failures %v, want one", bad)
	}
	for _, line := range []string{sum[:63] + "  E1", sum + "  E1  extra", sum + "  E1\n" + sum + "  E1"} {
		if _, err := parseManifest(strings.NewReader(line)); err == nil {
			t.Errorf("malformed manifest %q parsed without error", line)
		}
	}
}

func TestFailedChildCountsAsFailed(t *testing.T) {
	w, err := findWorkload("packet-des")
	if err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(t.TempDir(), "no-such-binary")
	wr := runWorkload(missing, w, options{seed: 1, seconds: 1, trace: traceBoth}, io.Discard)
	if want := 2 * len(w.ids); wr.Attempted != want || wr.Failed != want || len(wr.Failures) != 2 {
		t.Fatalf("two failed phases: attempted %d, failed %d, failures %q; want %d, %d and two lines", wr.Attempted, wr.Failed, wr.Failures, want, want)
	}
	line, failed := summaryLine([]workloadResult{wr})
	if !failed || !strings.HasPrefix(line, `{"correct":false,`) {
		t.Fatalf("summary line %s (failed=%v), want correct false", line, failed)
	}
}

func TestChromeTraceParsesWithParents(t *testing.T) {
	tr := newTracer(true)
	tr.begin("root")
	tr.begin("child")
	tr.begin("grandchild")
	tr.end()
	tr.end()
	tr.end()
	tr.begin("root2")
	tr.end()
	var b bytes.Buffer
	if err := writeChrome(&b, "test", tr.spans); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Args struct{ ID, Parent int }
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	ids := map[int]bool{}
	n := 0
	for _, e := range f.TraceEvents {
		if e.Ph == "X" {
			ids[e.Args.ID] = true
			n++
		}
	}
	if n != 4 {
		t.Fatalf("trace has %d spans, want 4", n)
	}
	for _, e := range f.TraceEvents {
		if e.Ph == "X" && e.Args.Parent != 0 && !ids[e.Args.Parent] {
			t.Errorf("span %s has parent %d, which is not in the trace", e.Name, e.Args.Parent)
		}
	}
}
