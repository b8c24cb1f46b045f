package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strings"

	"fpcc/internal/stats"
)

// This file is `benchreport -compare`, the repository's regression
// gate. It reads the results.json files that `bash bench/run.sh --out`
// writes for a parent commit and for a change, and judges each
// BENCHMARK.json workload and end-to-end metric by the median of each
// side's runs against the metric's bound. Runs are only comparable on
// one machine and build, so every file must carry the same identity.

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	Workloads []specEntry `json:"workloads"`
	EndToEnd  []specEntry `json:"end_to_end"`
	PerLayer  []specEntry `json:"per_layer"`
}

// specEntry is a workload or a metric of BENCHMARK.json.
type specEntry struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchFile is the part of a results.json the comparison reads.
type benchFile struct {
	Machine   map[string]json.RawMessage `json:"machine"`
	Workloads []benchRun                 `json:"workloads"`
}

// benchRun is one workload's entry in a results file. A run with
// -trace 0 fills EndToEnd, Unscaled and Attribution; a traced run
// fills PerLayer.
type benchRun struct {
	Workload    string       `json:"workload"`
	GOMAXPROCS  int          `json:"gomaxprocs"`
	Attempted   int          `json:"attempted"`
	Failed      int          `json:"failed"`
	EndToEnd    []benchValue `json:"end_to_end"`
	Unscaled    []benchValue `json:"unscaled"`
	PerLayer    []benchValue `json:"per_layer"`
	Attribution []benchValue `json:"experiment_wall"`

	path    string
	machine map[string]json.RawMessage
	// expRel is Attribution with each experiments.<id>.wall_s divided
	// by the run's own speed_probe_ms, so that a host which slowed down
	// between runs does not read as a slower experiment.
	expRel []benchValue
}

type benchValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// identity names the machine fields every compared file must share.
var identity = []string{"nproc", "goarch", "go_version", "cpu_model", "seed", "seconds"}

// maxMovers bounds the experiments and per-layer metrics named under
// a worse metric.
const maxMovers = 3

// workloadLayers maps each workload to the prefixes of the per-layer
// metrics its experiments run, after the "moves" column of
// bench/README.md's per-layer table. Every traced run reports every
// per-layer metric, so a workload's movers are drawn from its own
// layers only: a layer it never runs can only move by noise.
var workloadLayers = map[string][]string{
	"fp-vs-mc":    {"sde.step_us", "sde.step_allocs", "rng.norm", "control.", "fokkerplanck.step_us", "fokkerplanck.step2_us", "fokkerplanck.observe", "linalg.cn_step_ns"},
	"kinetic-1e6": {"meanfield.", "linalg.cn_step_rate", "netmf.step_us", "netmf.churn"},
	"fluid-dde":   {"dde.", "fluid.", "stability."},
	"packet-des":  {"des.", "eventq.", "netsim.", "rng.exp"},
	"sharded-2":   {"parallel.", "sweep.", "linalg.cn_step_rate", "netmf.step_us", "netmf.step_w2"},
}

// runCompare is the -compare mode: args are the parent's results
// files, "--", then the change's, judged by the spec at specPath. It
// returns the exit code: 1 when the change is worse, 2 when the files
// cannot be compared.
func runCompare(w, errw io.Writer, specPath string, args []string) int {
	var spec benchSpec
	raw, err := os.ReadFile(specPath)
	if err == nil {
		err = json.Unmarshal(raw, &spec)
	}
	for _, m := range slices.Concat(spec.EndToEnd, spec.PerLayer) {
		if err == nil && m.Better != "lower" {
			err = fmt.Errorf("%s: metric %s is better %q; only lower-is-better metrics are judged", specPath, m.Name, m.Better)
		}
	}
	worse := false
	if i := slices.Index(args, "--"); i < 1 || i == len(args)-1 {
		err = errors.New(`want parent results files, "--", then change results files`)
	} else if err == nil {
		worse, err = compare(w, spec, args[:i], args[i+1:])
	}
	switch {
	case err != nil:
		fmt.Fprintf(errw, "benchreport: -compare: %v\n", err)
		return 2
	case worse:
		return 1
	}
	return 0
}

// load reads one side's results files.
func load(paths []string) ([]benchRun, error) {
	var runs []benchRun
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var f benchFile
		if err := json.Unmarshal(raw, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for _, r := range f.Workloads {
			r.path, r.machine = p, f.Machine
			probe := value(r.Unscaled, "speed_probe_ms")
			for _, e := range r.Attribution {
				r.expRel = append(r.expRel, benchValue{e.Name + "/speed_probe_ms", e.Value / probe})
			}
			runs = append(runs, r)
		}
	}
	return runs, nil
}

// compare prints the verdict table for the parent and change results
// files and reports whether any metric is resolved worse or the failed
// share rose. An error means the files cannot be compared.
func compare(w io.Writer, spec benchSpec, parentPaths, changePaths []string) (bool, error) {
	parent, err := load(parentPaths)
	if err != nil {
		return false, err
	}
	change, err := load(changePaths)
	if err != nil {
		return false, err
	}
	if len(parent) == 0 || len(change) == 0 {
		return false, errors.New("a side has no workload runs")
	}
	all := slices.Concat(parent, change)
	for _, r := range all {
		for _, k := range identity {
			if a, b := string(all[0].machine[k]), string(r.machine[k]); a != b {
				return false, fmt.Errorf("machine %s differs: %s in %s, %s in %s", k, a, all[0].path, b, r.path)
			}
		}
		if f := all[slices.IndexFunc(all, func(o benchRun) bool { return o.Workload == r.Workload })]; f.GOMAXPROCS != r.GOMAXPROCS {
			return false, fmt.Errorf("workload %s: gomaxprocs %d in %s, %d in %s", r.Workload, f.GOMAXPROCS, f.path, r.GOMAXPROCS, r.path)
		}
		if !slices.ContainsFunc(spec.Workloads, func(wl specEntry) bool { return wl.Name == r.Workload }) {
			return false, fmt.Errorf("%s: workload %q is not in BENCHMARK.json", r.path, r.Workload)
		}
	}

	var head []string
	for _, k := range identity {
		head = append(head, k+"="+string(all[0].machine[k]))
	}
	fmt.Fprintf(w, "parent: %d files, change: %d files; %s\n", len(parentPaths), len(changePaths), strings.Join(head, " "))
	fmt.Fprintf(w, "%-12s %-10s %12s %12s %8s %6s %7s  %s\n", "workload", "metric", "parent", "change", "delta", "bound", "spread", "verdict")
	worse := false
	for _, wl := range spec.Workloads {
		p, pf, pa := of(parent, wl.Name)
		c, cf, ca := of(change, wl.Name)
		switch {
		case len(p) == 0 && len(c) == 0:
			continue
		case len(p) == 0 || len(c) == 0:
			return false, fmt.Errorf("workload %s has runs on one side only (parent %d, change %d)", wl.Name, len(p), len(c))
		}
		for _, m := range spec.EndToEnd {
			ps, cs := samples(p, endToEnd, m.Name), samples(c, endToEnd, m.Name)
			if len(ps) == 0 || len(cs) == 0 {
				return false, fmt.Errorf("workload %s: %s has no runs on one side (parent %d, change %d)", wl.Name, m.Name, len(ps), len(cs))
			}
			pm, cm, spread, verdict := judge(m, ps, cs)
			fmt.Fprintf(w, "%-12s %-10s %12.6g %12.6g %+7.1f%% %5.0f%% %6.1f%%  %s\n",
				wl.Name, m.Name, pm, cm, 100*(cm-pm)/pm, 100*m.Bound, 100*spread, verdict)
			if verdict != "worse" {
				continue
			}
			worse = true
			if s := movers(p, c, expRel, nil); s != "" {
				fmt.Fprintln(w, "  experiments: "+s)
			}
			if s := movers(p, c, perLayer, workloadLayers[wl.Name]); s != "" {
				fmt.Fprintln(w, "  per_layer:   "+s)
			}
		}
		verdict := "ok"
		if cf*pa > pf*ca { // cf/ca > pf/pa without dividing by zero
			verdict, worse = "worse", true
		}
		fmt.Fprintf(w, "%-12s %-10s %12s %12s %24s  %s\n",
			wl.Name, "failed", fmt.Sprintf("%d/%d", pf, pa), fmt.Sprintf("%d/%d", cf, ca), "", verdict)
	}
	return worse, nil
}

func endToEnd(r benchRun) []benchValue { return r.EndToEnd }
func perLayer(r benchRun) []benchValue { return r.PerLayer }
func expRel(r benchRun) []benchValue   { return r.expRel }

// of selects one workload's runs and sums their failed and attempted
// checks.
func of(runs []benchRun, workload string) (sel []benchRun, failed, attempted int) {
	for _, r := range runs {
		if r.Workload == workload {
			sel, failed, attempted = append(sel, r), failed+r.Failed, attempted+r.Attempted
		}
	}
	return sel, failed, attempted
}

// value returns name's value in vs, or NaN.
func value(vs []benchValue, name string) float64 {
	for _, v := range vs {
		if v.Name == name {
			return v.Value
		}
	}
	return math.NaN()
}

// samples collects name from the group of every run that reports it.
func samples(runs []benchRun, group func(benchRun) []benchValue, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if v := value(group(r), name); !math.IsNaN(v) {
			xs = append(xs, v)
		}
	}
	return xs
}

// judge returns both sides' medians, the parent's interquartile
// spread relative to its median, and a verdict: ok, worse or
// unresolved. Lower is better. A parent spread wider than the bound
// cannot resolve a move of the bound's size, so the metric is
// unresolved unless every change run beats every parent run.
func judge(m specEntry, ps, cs []float64) (pm, cm, spread float64, verdict string) {
	pm, cm = stats.Quantile(ps, 0.5), stats.Quantile(cs, 0.5)
	spread = (stats.Quantile(ps, 0.75) - stats.Quantile(ps, 0.25)) / pm
	switch {
	case spread > m.Bound && slices.Max(cs) >= slices.Min(ps):
		return pm, cm, spread, "unresolved"
	case spread <= m.Bound && (cm-pm)/pm > m.Bound:
		return pm, cm, spread, "worse"
	}
	return pm, cm, spread, "ok"
}

// movers names up to maxMovers values of group, reported on both
// sides, whose median rose most, largest rise first. With prefixes
// non-nil, only names starting with one of them count. It returns ""
// when none rose.
func movers(parent, change []benchRun, group func(benchRun) []benchValue, prefixes []string) string {
	type move struct {
		name  string
		delta float64
	}
	var moves []move
	seen := map[string]bool{}
	for _, r := range parent {
		for _, v := range group(r) {
			cs := samples(change, group, v.Name)
			own := prefixes == nil || slices.ContainsFunc(prefixes, func(p string) bool { return strings.HasPrefix(v.Name, p) })
			if seen[v.Name] || len(cs) == 0 || !own {
				continue
			}
			seen[v.Name] = true
			pm := stats.Quantile(samples(parent, group, v.Name), 0.5)
			if d := (stats.Quantile(cs, 0.5) - pm) / pm; d > 0 {
				moves = append(moves, move{v.Name, d})
			}
		}
	}
	sort.SliceStable(moves, func(i, j int) bool { return moves[i].delta > moves[j].delta })
	var out []string
	for _, m := range moves[:min(maxMovers, len(moves))] {
		out = append(out, fmt.Sprintf("%s %+.1f%%", m.name, 100*m.delta))
	}
	return strings.Join(out, ", ")
}
