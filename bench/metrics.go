package main

import (
	"fmt"
	"sort"
)

// metricDef names a metric and its unit. BENCHMARK.json at the
// repository root lists the same names and units; a self-test keeps
// the two in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the suite sees, measured with
// spans off. Each is the median over the run's passes (setup_s: the
// fastest of the run's set-up samples; max_rss_mb: the peak of the
// end-to-end process). wall_rel and cpu_rel are the pass's wall and
// CPU time in units of the speed probe's time (speedprobe.go).
var endToEnd = []metricDef{
	{"wall_rel", "x"},
	{"cpu_rel", "x"},
	{"alloc_mb", "MB"},
	{"max_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the traced replay's timings of each layer's public
// functions, grouped by the workload whose end-to-end numbers they
// should move (README.md has the map).
var perLayer = []metricDef{
	// fp-vs-mc
	{"sde.step_us.p50", "us"},
	{"sde.step_us.p99", "us"},
	{"sde.step_allocs", "count"},
	{"rng.norm_ns", "ns"},
	{"control.drifts_ns", "ns"},
	{"fokkerplanck.step_us.p50", "us"},
	{"fokkerplanck.step_us.p99", "us"},
	{"fokkerplanck.step2_us.p50", "us"},
	{"fokkerplanck.step2_us.p99", "us"},
	{"fokkerplanck.observe_us", "us"},
	{"linalg.cn_step_ns", "ns"},
	{"obs.disabled_ns", "ns"},
	// kinetic-1e6
	{"meanfield.density_step_us.p50", "us"},
	{"meanfield.density_step_us.p99", "us"},
	{"meanfield.setdrift_us", "us"},
	{"meanfield.advect_us", "us"},
	{"meanfield.diffuse_us", "us"},
	{"linalg.cn_step_rate_ns", "ns"},
	{"meanfield.particles_step_us", "us"},
	{"netmf.step_us.p50", "us"},
	{"netmf.step_us.p99", "us"},
	{"netmf.churn_step_us", "us"},
	{"meanfield.history_at_ns", "ns"},
	// fluid-dde
	{"fluid.solve_ms", "ms"},
	{"fluid.solve_alloc_mb", "MB"},
	{"fluid.solve_mallocs", "count"},
	{"dde.solve_ms", "ms"},
	{"dde.solve_alloc_mb", "MB"},
	{"stability.critical_delay_us", "us"},
	// packet-des
	{"des.packet_ns", "ns"},
	{"des.run_alloc_mb", "MB"},
	{"des.tahoe_run_ms", "ms"},
	{"des.tandem_run_ms", "ms"},
	{"netsim.packet_ns", "ns"},
	{"eventq.push_pop_ns", "ns"},
	{"rng.exp_ns", "ns"},
	// sharded-2
	{"parallel.for_ns", "ns"},
	{"sweep.map_cell_us", "us"},
	{"sde.step_w2_us.p50", "us"},
	{"fokkerplanck.step_w2_us.p50", "us"},
	{"netmf.step_w2_us.p50", "us"},
	// every workload
	{"trace_overhead_pct", "%"},
}

// metric is one measured value; N is the number of samples behind it.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

// unitScale converts seconds to each time unit.
var unitScale = map[string]float64{"s": 1, "ms": 1e3, "us": 1e6, "ns": 1e9}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("undeclared metric " + name) // a name missing from the tables is a bug in this file
}

func newMetric(name string, v float64, n int) metric {
	return metric{Name: name, Unit: unitOf(name), Value: v, N: n}
}

// ordered returns ms in the order defs declares them and reports any
// declared metric that is missing or duplicated.
func ordered(ms []metric, defs []metricDef) ([]metric, error) {
	pos := make(map[string]int, len(defs))
	for i, d := range defs {
		pos[d.name] = i
	}
	seen := map[string]bool{}
	for _, m := range ms {
		if _, ok := pos[m.Name]; !ok || seen[m.Name] {
			return nil, fmt.Errorf("metric %s is undeclared or measured twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, d := range defs {
		if !seen[d.name] {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
	}
	out := append([]metric(nil), ms...)
	sort.Slice(out, func(i, j int) bool { return pos[out[i].Name] < pos[out[j].Name] })
	return out, nil
}
