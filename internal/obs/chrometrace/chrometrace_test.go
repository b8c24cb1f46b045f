package chrometrace

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"fpcc/internal/obs"
)

// buildTrace runs a recorder through spans, probes (one NaN), and a
// flight-dumped violation, and returns the JSONL stream.
func buildTrace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	rec := (&obs.Config{Sink: sink, Invariants: true}).Recorder("sim")
	rec.Span("setup").End()
	rec.WorkerSpan("step", 2).End()
	rec.Probe("q", 0.5, 1.25)
	rec.Probe("q", 1.0, math.NaN())
	rec.Probe("rate", 1.0, 3.5)
	if err := rec.Violationf(3, 1.5, "sim.q", "poisoned"); err == nil {
		t.Fatal("Violationf returned nil")
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestConvertProducesValidTrace converts a real event stream and
// validates the output IS the Chrome trace_event JSON Object Format:
// it decodes, every event has a legal phase, complete events have
// non-negative ts/dur, and nothing smuggled a bare NaN into the file.
func TestConvertProducesValidTrace(t *testing.T) {
	jsonl := buildTrace(t)
	var out bytes.Buffer
	if err := Convert(bytes.NewReader(jsonl), &out); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(out.Bytes(), []byte("NaN")) && !bytes.Contains(out.Bytes(), []byte(`"NaN"`)) {
		t.Fatal("bare NaN in the trace JSON (unloadable)")
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(out.Bytes(), &tf); err != nil {
		t.Fatalf("trace does not decode: %v", err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	legal := map[string]bool{"X": true, "C": true, "i": true, "M": true}
	var spans, counters, instants int
	for _, ev := range tf.TraceEvents {
		if !legal[ev.Ph] {
			t.Errorf("event %q has illegal phase %q", ev.Name, ev.Ph)
		}
		if ev.Ts < 0 || ev.Dur < 0 {
			t.Errorf("event %q at ts=%g dur=%g (negative timeline)", ev.Name, ev.Ts, ev.Dur)
		}
		switch ev.Ph {
		case "X":
			spans++
			if ev.Pid != pidWall {
				t.Errorf("span %q on pid %d, want wall-clock pid %d", ev.Name, ev.Pid, pidWall)
			}
		case "C":
			counters++
			if ev.Pid != pidSim {
				t.Errorf("counter %q on pid %d, want sim pid %d", ev.Name, ev.Pid, pidSim)
			}
		case "i":
			instants++
		}
	}
	if spans != 2 {
		t.Errorf("%d complete spans, want 2", spans)
	}
	if counters != 3 {
		t.Errorf("%d counter samples, want 3 (NaN sample must survive as a string arg)", counters)
	}
	// The violation instant and the flight header both land as instants.
	if instants < 2 {
		t.Errorf("%d instants, want the violation and the flight header", instants)
	}
}

// TestConvertWorkerLabels pins the thread naming: worker-attributed
// spans land on their own named rows (the wire Worker index is
// 1-based, so 0-based worker 2 renders as w3).
func TestConvertWorkerLabels(t *testing.T) {
	jsonl := buildTrace(t)
	var out bytes.Buffer
	if err := Convert(bytes.NewReader(jsonl), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "sim [w3]") {
		t.Error("worker-attributed span row 'sim [w3]' missing from the trace")
	}
}

// TestConvertRejectsGarbage requires malformed lines to fail the
// conversion instead of silently dropping post-mortem evidence.
func TestConvertRejectsGarbage(t *testing.T) {
	var out bytes.Buffer
	err := Convert(strings.NewReader("{\"kind\":\"probe\"}\nnot json\n"), &out)
	if err == nil {
		t.Fatal("malformed line converted without error")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error %v does not name the offending line", err)
	}
}

// TestConvertEmpty converts an empty stream to a valid, loadable
// trace (metadata only).
func TestConvertEmpty(t *testing.T) {
	var out bytes.Buffer
	if err := Convert(strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	var tf map[string]any
	if err := json.Unmarshal(out.Bytes(), &tf); err != nil {
		t.Fatalf("empty trace does not decode: %v", err)
	}
	if _, ok := tf["traceEvents"]; !ok {
		t.Fatal("traceEvents key missing")
	}
}
