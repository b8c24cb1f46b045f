// Package chrometrace converts an internal/obs JSONL event stream
// into the Chrome trace_event JSON format, loadable in Perfetto
// (ui.perfetto.dev) or chrome://tracing.
//
// The trace has two synthetic processes:
//
//   - pid 1 "wall clock": every "span" event becomes a complete ("X")
//     slice on the wall-clock timeline, one thread row per
//     (scope, worker) pair — the suite's outer workers, the sweep
//     cells, and the CLI phase spans land here.
//   - pid 2 "simulation time": every "probe" sample becomes a counter
//     ("C") event at its SIMULATION time, one thread row per scope,
//     so Perfetto plots each probe series as a track against sim
//     seconds (shown as trace µs). Invariant violations and flight
//     dumps appear as instant ("i") events on the same timeline.
//
// Summary events (counter/span_total) and the flight.* replays carry
// no timeline position of their own and are skipped.
package chrometrace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"fpcc/internal/obs"
)

// trace_event JSON shapes (the "JSON Object Format" variant, which
// Perfetto accepts and which tolerates the metadata events below).
type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

const (
	pidWall = 1
	pidSim  = 2
)

// Convert reads a JSONL event stream from r and writes the Chrome
// trace to w. Malformed lines fail the conversion (a trace that
// silently dropped events would lie in a post-mortem); blank lines
// are permitted.
func Convert(r io.Reader, w io.Writer) error {
	tf := traceFile{TraceEvents: []traceEvent{
		procName(pidWall, "wall clock"),
		procName(pidSim, "simulation time (1 sim s = 1 trace s)"),
	}, DisplayTimeUnit: "ms"}

	// tids are assigned per (pid, label) in encounter order, each
	// introduced by a thread_name metadata event.
	tids := map[string]int{}
	tid := func(pid int, label string) int {
		key := fmt.Sprintf("%d/%s", pid, label)
		id, ok := tids[key]
		if !ok {
			id = len(tids) + 1
			tids[key] = id
			tf.TraceEvents = append(tf.TraceEvents, traceEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: id,
				Args: map[string]any{"name": label},
			})
		}
		return id
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var ev obs.Event
		if err := json.Unmarshal(raw, &ev); err != nil {
			return fmt.Errorf("chrometrace: line %d does not decode as an obs event: %w", line, err)
		}
		switch ev.Kind {
		case "span":
			// Wall stamps the span's END; Value is its duration in
			// seconds. Pre-Wall traces (schema without the field)
			// clamp to a zero-based timeline.
			start := (ev.Wall - ev.Value) * 1e6
			if start < 0 {
				start = 0
			}
			label := ev.Scope
			if ev.Worker > 0 {
				label = fmt.Sprintf("%s [w%d]", ev.Scope, ev.Worker)
			}
			tf.TraceEvents = append(tf.TraceEvents, traceEvent{
				Name: ev.Name, Cat: "span", Ph: "X",
				Ts: start, Dur: ev.Value * 1e6,
				Pid: pidWall, Tid: tid(pidWall, label),
				Args: map[string]any{"scope": ev.Scope},
			})
		case "probe":
			tf.TraceEvents = append(tf.TraceEvents, traceEvent{
				Name: ev.Name, Cat: "probe", Ph: "C",
				Ts:  ev.T * 1e6,
				Pid: pidSim, Tid: tid(pidSim, ev.Scope),
				Args: map[string]any{"value": jsonSafe(ev.Value)},
			})
		case "violation", "flight":
			tf.TraceEvents = append(tf.TraceEvents, traceEvent{
				Name: ev.Kind + ": " + ev.Name, Cat: ev.Kind, Ph: "i", S: "g",
				Ts:  ev.T * 1e6,
				Pid: pidSim, Tid: tid(pidSim, ev.Scope),
				Args: map[string]any{"scope": ev.Scope, "step": ev.Step, "msg": ev.Msg},
			})
		default:
			// counter/span_total summaries and flight.* replays have
			// no timeline position of their own.
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("chrometrace: reading trace: %w", err)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(tf)
}

// jsonSafe maps non-finite floats to strings: encoding/json refuses
// NaN/±Inf, and a probe that sampled one must not make the whole
// trace unloadable.
func jsonSafe(v float64) any {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Sprint(v)
	}
	return v
}

// procName builds a process_name metadata event.
func procName(pid int, name string) traceEvent {
	return traceEvent{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": name}}
}
