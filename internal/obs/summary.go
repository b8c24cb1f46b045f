package obs

import (
	"runtime"
	"sort"
)

// This file is the streaming-aggregates half of the package: every
// Recorder's counters, probes and span totals can be snapshotted at
// any moment — concurrently with the engines feeding them — into a
// Summary, a JSON-stable run manifest. Summaries form the same tree
// the Child hierarchy does, children sorted by scope, and merge
// deterministically (Rollup), so two snapshots of identical recorder
// state are byte-identical JSON. The suite runner opens each
// experiment's setup/step phase spans and, when experiments run one
// at a time, attaches its Resources (wall/CPU time, allocs, GC) via
// SetResources; the -obs-summary manifest and the obshttp /summary
// endpoint carry the tree, and /metrics exports rolled-up live
// summaries as Prometheus text.

// SpanSummary is the snapshot of one span accumulator, workers
// summed in deterministic (name, worker) order, so identical span
// activity yields identical Seconds however goroutines interleaved.
type SpanSummary struct {
	Count   int64   `json:"count"`
	Seconds float64 `json:"seconds"`
}

// ProbeSummary is the snapshot of one probe series: how many samples
// were taken and the last (value, simulation-time) pair.
type ProbeSummary struct {
	Count int64   `json:"count"`
	Last  float64 `json:"last"`
	LastT float64 `json:"last_t"`
}

// Resources are process resource deltas harvested around a region of
// work: wall and CPU time, allocator traffic, and GC cycles. The
// counters are process-wide, so a delta is one region's own only when
// nothing else runs beside it; the suite runner records
// per-experiment deltas only when it runs one experiment at a time.
type Resources struct {
	WallSeconds float64 `json:"wall_seconds"`
	CPUSeconds  float64 `json:"cpu_seconds"`
	AllocBytes  uint64  `json:"alloc_bytes"`
	Mallocs     uint64  `json:"mallocs"`
	NumGC       uint32  `json:"num_gc"`
}

// ReadResources samples the process counters Resources is a delta
// of. WallSeconds is seconds since process start; subtract two reads
// (Sub) to attribute a region.
func ReadResources() Resources {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return Resources{
		WallSeconds: sinceEpoch(),
		CPUSeconds:  processCPUSeconds(),
		AllocBytes:  ms.TotalAlloc,
		Mallocs:     ms.Mallocs,
		NumGC:       ms.NumGC,
	}
}

// Sub returns the delta r − start of two ReadResources samples.
func (r Resources) Sub(start Resources) Resources {
	return Resources{
		WallSeconds: r.WallSeconds - start.WallSeconds,
		CPUSeconds:  r.CPUSeconds - start.CPUSeconds,
		AllocBytes:  r.AllocBytes - start.AllocBytes,
		Mallocs:     r.Mallocs - start.Mallocs,
		NumGC:       r.NumGC - start.NumGC,
	}
}

// Add returns the sum of two resource deltas.
func (r Resources) Add(o Resources) Resources {
	return Resources{
		WallSeconds: r.WallSeconds + o.WallSeconds,
		CPUSeconds:  r.CPUSeconds + o.CPUSeconds,
		AllocBytes:  r.AllocBytes + o.AllocBytes,
		Mallocs:     r.Mallocs + o.Mallocs,
		NumGC:       r.NumGC + o.NumGC,
	}
}

// Summary is the point-in-time aggregate snapshot of one recorder
// and, recursively, its children (sorted by scope). It marshals to
// deterministic JSON — maps sort by key, the child order is fixed —
// so identical recorder states produce identical manifests.
type Summary struct {
	Scope      string                  `json:"scope"`
	Counters   map[string]int64        `json:"counters,omitempty"`
	Probes     map[string]ProbeSummary `json:"probes,omitempty"`
	Spans      map[string]SpanSummary  `json:"spans,omitempty"`
	Violations int64                   `json:"violations,omitempty"`
	Resources  *Resources              `json:"resources,omitempty"`
	Children   []*Summary              `json:"children,omitempty"`
}

// Summary snapshots the recorder and its Child hierarchy. It is safe
// to call at any time, including while engines are feeding the
// recorder from other goroutines (each node is captured atomically
// under its own lock; the tree as a whole is a crossing snapshot).
// A nil recorder returns nil.
func (r *Recorder) Summary() *Summary {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	// SetResources swaps the pointer and never writes through it, so
	// the snapshot may share it.
	s := &Summary{Scope: r.scope, Violations: r.violations, Resources: r.resources}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for k, v := range r.counters {
			s.Counters[k] = v
		}
	}
	if len(r.probes) > 0 {
		s.Probes = make(map[string]ProbeSummary, len(r.probes))
		for k, p := range r.probes {
			s.Probes[k] = ProbeSummary{Count: p.count, Last: p.last, LastT: p.lastT}
		}
	}
	if len(r.spans) > 0 {
		s.Spans = make(map[string]SpanSummary, len(r.spans))
		for _, k := range sortedSpanKeys(r.spans) {
			st := r.spans[k]
			agg := s.Spans[k.name]
			agg.Count += st.count
			agg.Seconds += st.total.Seconds()
			s.Spans[k.name] = agg
		}
	}
	children := make([]*Recorder, len(r.children))
	copy(children, r.children)
	r.mu.Unlock()
	for _, c := range children {
		s.Children = append(s.Children, c.Summary())
	}
	sort.Slice(s.Children, func(i, j int) bool { return s.Children[i].Scope < s.Children[j].Scope })
	return s
}

// Rollup merges the summary and all its descendants into one flat
// node (Children nil, the receiver's scope kept): counters, spans and
// violations sum; probes are merged depth-first in sorted child order
// with a child's last sample replacing the running one when its LastT
// is at least as recent, so the result is a pure function of the
// tree. The obshttp /metrics endpoint exports one rolled-up node per
// attached recorder, keeping scrape cardinality independent of how
// many sweep cells a run spawns.
func (s *Summary) Rollup() *Summary {
	if s == nil {
		return nil
	}
	out := &Summary{Scope: s.Scope}
	s.rollInto(out)
	return out
}

func (s *Summary) rollInto(out *Summary) {
	for k, v := range s.Counters {
		if out.Counters == nil {
			out.Counters = map[string]int64{}
		}
		out.Counters[k] += v
	}
	for k, p := range s.Probes {
		if out.Probes == nil {
			out.Probes = map[string]ProbeSummary{}
		}
		prev, ok := out.Probes[k]
		if ok {
			prev.Count += p.Count
			if p.LastT >= prev.LastT {
				prev.Last, prev.LastT = p.Last, p.LastT
			}
			out.Probes[k] = prev
		} else {
			out.Probes[k] = p
		}
	}
	for k, sp := range s.Spans {
		if out.Spans == nil {
			out.Spans = map[string]SpanSummary{}
		}
		agg := out.Spans[k]
		agg.Count += sp.Count
		agg.Seconds += sp.Seconds
		out.Spans[k] = agg
	}
	out.Violations += s.Violations
	if s.Resources != nil {
		sum := s.Resources.Add(deref(out.Resources))
		out.Resources = &sum
	}
	for _, c := range s.Children {
		c.rollInto(out)
	}
}

func deref(r *Resources) Resources {
	if r == nil {
		return Resources{}
	}
	return *r
}
