package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// The fixtures under testdata are three untraced runs of the fluid-dde
// and packet-des workloads and one traced run, as bench/run.sh writes
// them, trimmed to a few experiments and per-layer metrics.
var parentFixtures = []string{"testdata/parent-1.json", "testdata/parent-2.json", "testdata/parent-3.json", "testdata/parent-traced.json"}

// derive writes a copy of every parent fixture, changed by edit, to a
// temporary directory and returns the copies' paths.
func derive(t *testing.T, edit func(f *benchFile, r *benchRun)) []string {
	t.Helper()
	dir := t.TempDir()
	var paths []string
	for i, src := range parentFixtures {
		raw, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		var f benchFile
		if err := json.Unmarshal(raw, &f); err != nil {
			t.Fatal(err)
		}
		for j := range f.Workloads {
			edit(&f, &f.Workloads[j])
		}
		raw, err = json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, fmt.Sprintf("change-%d.json", i))
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	return paths
}

// scale multiplies the named value of vs by k.
func scale(vs []benchValue, name string, k float64) {
	for i := range vs {
		if vs[i].Name == name {
			vs[i].Value *= k
		}
	}
}

func runFixtures(t *testing.T, parent, change []string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	args := append(append(append([]string(nil), parent...), "--"), change...)
	code = runCompare(&out, &errb, "../../BENCHMARK.json", args)
	return code, out.String(), errb.String()
}

// verdicts maps "workload metric" to the verdict column of each row.
func verdicts(out string) map[string]string {
	v := map[string]string{}
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) >= 3 && !strings.HasPrefix(line, " ") {
			v[f[0]+" "+f[1]] = f[len(f)-1]
		}
	}
	return v
}

func TestCompareSameRunsPass(t *testing.T) {
	code, out, stderr := runFixtures(t, parentFixtures, derive(t, func(*benchFile, *benchRun) {}))
	if code != 0 {
		t.Fatalf("exit %d, want 0\n%s%s", code, out, stderr)
	}
	// Rows follow BENCHMARK.json: workloads, then end-to-end metrics,
	// then the failed share.
	var rows []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n")[2:] {
		f := strings.Fields(line)
		rows = append(rows, f[0]+" "+f[1]+" "+f[len(f)-1])
	}
	var want []string
	for _, w := range []string{"fluid-dde", "packet-des"} {
		for _, m := range []string{"wall_rel", "cpu_rel", "alloc_mb", "max_rss_mb", "setup_s", "failed"} {
			want = append(want, w+" "+m+" ok")
		}
	}
	if got := strings.Join(rows, "\n"); got != strings.Join(want, "\n") {
		t.Errorf("rows:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
	}
}

func TestCompareRefusesDifferentMachines(t *testing.T) {
	for _, tc := range []struct {
		field string
		edit  func(f *benchFile, r *benchRun)
	}{
		{"nproc", func(f *benchFile, _ *benchRun) { f.Machine["nproc"] = json.RawMessage("4") }},
		{"cpu_model", func(f *benchFile, _ *benchRun) { f.Machine["cpu_model"] = json.RawMessage(`"AMD EPYC"`) }},
		{"seconds", func(f *benchFile, _ *benchRun) { f.Machine["seconds"] = json.RawMessage("22") }},
		{"gomaxprocs", func(_ *benchFile, r *benchRun) { r.GOMAXPROCS = 2 }},
	} {
		code, out, stderr := runFixtures(t, parentFixtures, derive(t, tc.edit))
		if code != 2 || !strings.Contains(stderr, tc.field) {
			t.Errorf("%s differs: exit %d, stderr %q, want 2 naming the field\n%s", tc.field, code, stderr, out)
		}
	}
}

func TestCompareRefusesOneSidedWorkload(t *testing.T) {
	change := derive(t, func(_ *benchFile, r *benchRun) {
		if r.Workload == "packet-des" {
			r.Workload = "sharded-2"
		}
	})
	code, _, stderr := runFixtures(t, parentFixtures, change)
	if code != 2 || !strings.Contains(stderr, "packet-des has runs on one side only") {
		t.Errorf("exit %d, stderr %q, want 2 naming packet-des", code, stderr)
	}
}

func TestCompareNamesMovers(t *testing.T) {
	change := derive(t, func(_ *benchFile, r *benchRun) {
		if r.Workload != "packet-des" {
			return
		}
		scale(r.EndToEnd, "wall_rel", 1.4)
		scale(r.Attribution, "experiments.E16.wall_s", 1.9)
		scale(r.Attribution, "experiments.E27.wall_s", 1.05)
		// A host 25% slower throughout moves no experiment: each wall
		// time is read against its own run's speed probe.
		scale(r.Unscaled, "speed_probe_ms", 1.25)
		for _, e := range r.Attribution {
			scale(r.Attribution, e.Name, 1.25)
		}
		scale(r.PerLayer, "netsim.packet_ns", 1.6)
		scale(r.PerLayer, "des.packet_ns", 1.1)
		scale(r.PerLayer, "rng.exp_ns", 0.8)
	})
	code, out, stderr := runFixtures(t, parentFixtures, change)
	if code != 1 {
		t.Fatalf("exit %d, want 1\n%s%s", code, out, stderr)
	}
	if v := verdicts(out); v["packet-des wall_rel"] != "worse" || v["packet-des cpu_rel"] != "ok" || v["fluid-dde wall_rel"] != "ok" {
		t.Errorf("verdicts %v, want only packet-des wall_rel worse", v)
	}
	for _, want := range []string{
		"  experiments: experiments.E16.wall_s/speed_probe_ms +90.0%, experiments.E27.wall_s/speed_probe_ms +5.0%\n",
		"  per_layer:   netsim.packet_ns +60.0%, des.packet_ns +10.0%\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

func TestCompareWideParentSpreadIsUnresolved(t *testing.T) {
	// Parent wall_rel runs 100, 150 and 250 against a 25% bound: the
	// change's 160 is neither resolved worse nor better than all of them.
	noisy := derive(t, func(_ *benchFile, r *benchRun) {
		if v := r.EndToEnd; len(v) > 0 && r.Workload == "packet-des" {
			v[0].Value = map[float64]float64{226.8: 100, 231.2: 150, 229: 250}[v[0].Value]
		}
	})
	change := derive(t, func(_ *benchFile, r *benchRun) {
		if v := r.EndToEnd; len(v) > 0 && r.Workload == "packet-des" {
			v[0].Value = 160
		}
	})
	code, out, stderr := runFixtures(t, noisy, change)
	if v := verdicts(out); code != 0 || v["packet-des wall_rel"] != "unresolved" {
		t.Errorf("exit %d, verdicts %v, want 0 with packet-des wall_rel unresolved\n%s%s", code, v, out, stderr)
	}
	// Every change run below every parent run resolves it as better.
	better := derive(t, func(_ *benchFile, r *benchRun) {
		if v := r.EndToEnd; len(v) > 0 && r.Workload == "packet-des" {
			v[0].Value = 90
		}
	})
	if code, out, _ := runFixtures(t, noisy, better); code != 0 || verdicts(out)["packet-des wall_rel"] != "ok" {
		t.Errorf("exit %d, want 0 with packet-des wall_rel ok\n%s", code, out)
	}
}

func TestCompareFailedShareUp(t *testing.T) {
	change := derive(t, func(_ *benchFile, r *benchRun) {
		if r.Workload == "fluid-dde" && len(r.EndToEnd) > 0 {
			r.Failed = 1
		}
	})
	code, out, stderr := runFixtures(t, parentFixtures, change)
	if v := verdicts(out); code != 1 || v["fluid-dde failed"] != "worse" || v["packet-des failed"] != "ok" {
		t.Errorf("exit %d, verdicts %v, want 1 with fluid-dde failed worse\n%s%s", code, v, out, stderr)
	}
}

func TestCompareUsage(t *testing.T) {
	for _, args := range [][]string{nil, {"--", "a.json"}, {"a.json", "--"}, {"a.json", "b.json"}} {
		var out, errb bytes.Buffer
		if code := runCompare(&out, &errb, "../../BENCHMARK.json", args); code != 2 {
			t.Errorf("args %q: exit %d, want 2", args, code)
		}
	}
	// The verdicts read lower as better; a spec saying otherwise is
	// refused rather than judged backwards.
	spec := filepath.Join(t.TempDir(), "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end": [{"name": "ops_per_s", "better": "higher", "bound": 0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := runCompare(&out, &errb, spec, []string{parentFixtures[0], "--", parentFixtures[0]}); code != 2 || !strings.Contains(errb.String(), "ops_per_s") {
		t.Errorf("higher-is-better spec: exit %d, stderr %q, want 2 naming the metric", code, errb.String())
	}
}

func TestCompareMoversStayInWorkload(t *testing.T) {
	// Every traced run reports every layer; one packet-des never runs
	// rises most and must not be named under packet-des.
	offLayer := func(k float64) func(*benchFile, *benchRun) {
		return func(_ *benchFile, r *benchRun) {
			if r.Workload == "packet-des" && len(r.PerLayer) > 0 {
				r.PerLayer = append(r.PerLayer, benchValue{"fokkerplanck.step2_us.p99", 100 * k})
			}
		}
	}
	parent := derive(t, offLayer(1))
	change := derive(t, func(f *benchFile, r *benchRun) {
		offLayer(3)(f, r)
		if r.Workload != "packet-des" {
			return
		}
		scale(r.EndToEnd, "wall_rel", 1.4)
		scale(r.PerLayer, "netsim.packet_ns", 1.6)
		scale(r.PerLayer, "des.packet_ns", 1.1)
	})
	code, out, stderr := runFixtures(t, parent, change)
	if code != 1 {
		t.Fatalf("exit %d, want 1\n%s%s", code, out, stderr)
	}
	if want := "  per_layer:   netsim.packet_ns +60.0%, des.packet_ns +10.0%\n"; !strings.Contains(out, want) || strings.Contains(out, "fokkerplanck") {
		t.Errorf("output lacks %q or names an off-workload layer:\n%s", want, out)
	}
}

func TestWorkloadLayersMatchSpec(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, wl := range spec.Workloads {
		if _, ok := workloadLayers[wl.Name]; !ok {
			t.Errorf("workload %s has no layer prefixes", wl.Name)
		}
	}
	for name, prefixes := range workloadLayers {
		for _, p := range prefixes {
			if !slices.ContainsFunc(spec.PerLayer, func(m specEntry) bool { return strings.HasPrefix(m.Name, p) }) {
				t.Errorf("%s: prefix %q names no per-layer metric", name, p)
			}
		}
	}
}
