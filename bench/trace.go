package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"fpcc/internal/stats"
)

// span is one timed interval recorded by the benchmark around a call
// into a layer. Parent is the ID of the enclosing span, 0 for a root.
type span struct {
	ID, Parent int
	Name       string
	Start, End time.Duration // offsets from the tracer's epoch
}

// tracer keeps spans in memory for one goroutine; nesting follows the
// begin/end call order. A tracer that is off records nothing and its
// methods cost one branch, so the replay runs the same code with spans
// off and on.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
	open  []int // indices into spans of the not yet ended spans
}

func newTracer(on bool) *tracer {
	t := &tracer{on: on, epoch: time.Now()}
	if on {
		// Growing the slice inside a timed region would put a copy of
		// every earlier span into one call's latency.
		t.spans = make([]span, 0, 1<<15)
	}
	return t
}

func (t *tracer) begin(name string) {
	if !t.on {
		return
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: time.Since(t.epoch)})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() time.Duration {
	if !t.on {
		return 0
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = time.Since(t.epoch)
	return t.spans[i].End - t.spans[i].Start
}

// selfTimes returns each span's duration minus the part of its
// interval that its direct children cover, index-aligned with spans.
func selfTimes(spans []span) []time.Duration {
	index := make(map[int]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	children := make([][]span, len(spans))
	for _, s := range spans {
		if p, ok := index[s.Parent]; ok {
			children[p] = append(children[p], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered time.Duration
		cur := s.Start // end of the covered prefix so far
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// spanStat aggregates the spans sharing one name.
type spanStat struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// summarize folds spans by name, sorted by name.
func summarize(spans []span) []spanStat {
	self := selfTimes(spans)
	byName := map[string]*spanStat{}
	var names []string
	for i, s := range spans {
		st, ok := byName[s.Name]
		if !ok {
			st = &spanStat{Name: s.Name}
			byName[s.Name] = st
			names = append(names, s.Name)
		}
		st.Count++
		st.TotalS += (s.End - s.Start).Seconds()
		st.SelfS += self[i].Seconds()
	}
	sort.Strings(names)
	out := make([]spanStat, len(names))
	for i, n := range names {
		out[i] = *byName[n]
	}
	return out
}

// chromeEvent is one Chrome trace_event record: a complete ("X")
// slice, or the process-name metadata ("M") record.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`            // µs
	Dur  float64        `json:"dur,omitempty"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome trace_event JSON, which
// Perfetto (ui.perfetto.dev) and chrome://tracing open. Every span is
// on one thread row, so the viewers nest children under parents by
// time; args carry the explicit id and parent.
func writeChrome(w io.Writer, process string, spans []span) error {
	evs := make([]chromeEvent, 0, len(spans)+1)
	evs = append(evs, chromeEvent{Name: "process_name", Ph: "M", Pid: 1, Tid: 1, Args: map[string]any{"name": process}})
	for _, s := range spans {
		evs = append(evs, chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent},
		})
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{evs, "ns"}); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}

// minP99Samples is the sample count below which p99 is withheld: with
// fewer than 1000 samples, fewer than ten lie beyond the 99th
// percentile and it is one or two outliers, not a tail.
const minP99Samples = 1000

// p99 returns the 99th percentile of xs, or false when there are too
// few samples to report one.
func p99(xs []float64) (float64, bool) {
	if len(xs) < minP99Samples {
		return 0, false
	}
	return stats.Quantile(xs, 0.99), true
}
