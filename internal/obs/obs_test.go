package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
)

// TestNilRecorderIsNoOp exercises every method on the nil recorder —
// the disabled default every engine holds — and checks nothing
// panics, nothing reports enabled, and violations still build usable
// errors.
func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	if r.Invariants() {
		t.Fatal("nil recorder reports invariants on")
	}
	if r.ProbeDue("x", 1) {
		t.Fatal("nil recorder reports probe due")
	}
	if r.Child("sub") != nil {
		t.Fatal("nil recorder child not nil")
	}
	r.Count("c", 1)
	r.Gauge("g", 2)
	r.Observe("h", 3)
	r.Probe("p", 0, 4)
	sp := r.Span("s")
	sp.End()
	r.WorkerSpan("w", 3).End()
	if got := r.SpanSeconds(); len(got) != 0 {
		t.Fatalf("nil recorder span seconds %v", got)
	}
	if r.Violations() != 0 {
		t.Fatal("nil recorder has violations")
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	// Violationf on a nil recorder still returns a step-stamped error.
	err := r.Violationf(42, 1.5, "field.x", "bad %d", 7)
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("violation error type %T", err)
	}
	if v.Step != 42 || v.T != 1.5 || v.Field != "field.x" || v.Msg != "bad 7" {
		t.Fatalf("violation %+v", v)
	}
	if !strings.Contains(err.Error(), "step 42") || !strings.Contains(err.Error(), "field.x") {
		t.Fatalf("violation text %q", err.Error())
	}
}

func TestNilConfigRecorder(t *testing.T) {
	var c *Config
	if c.Recorder("x") != nil {
		t.Fatal("nil config produced a live recorder")
	}
}

// decodeEvents parses a JSONL buffer back into events.
func decodeEvents(t *testing.T, buf *bytes.Buffer) []Event {
	t.Helper()
	var evs []Event
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return evs
}

func TestJSONLStream(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{Sink: NewJSONL(&buf), ProbeDt: 1}
	r := cfg.Recorder("E99")

	if !r.ProbeDue("q", 0) {
		t.Fatal("first probe not due")
	}
	r.Probe("q", 0, 3.5)
	if r.ProbeDue("q", 0.5) {
		t.Fatal("probe due before ProbeDt elapsed")
	}
	if !r.ProbeDue("q", 1.0) {
		t.Fatal("probe not due after ProbeDt")
	}
	r.Probe("q", 1.0, 4.5)
	r.Span("phase").End()
	r.WorkerSpan("cell", 2).End()
	r.Count("steps", 10)
	r.Gauge("level", 7)
	r.Observe("lat", 1)
	r.Observe("lat", 3)
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}

	evs := decodeEvents(t, &buf)
	kinds := map[string]int{}
	for _, ev := range evs {
		kinds[ev.Kind]++
		if ev.Scope != "E99" {
			t.Fatalf("event scope %q", ev.Scope)
		}
	}
	if kinds["probe"] != 2 || kinds["span"] != 2 || kinds["counter"] != 1 ||
		kinds["gauge"] != 1 || kinds["hist"] != 1 || kinds["span_total"] != 2 {
		t.Fatalf("event kinds %v", kinds)
	}
	for _, ev := range evs {
		switch {
		case ev.Kind == "probe" && ev.Name == "q" && ev.T == 0:
			if ev.Value != 3.5 {
				t.Fatalf("probe value %v", ev.Value)
			}
		case ev.Kind == "span" && ev.Name == "cell":
			if ev.Worker != 3 { // 0-based worker 2 → 1-based 3
				t.Fatalf("cell span worker %d", ev.Worker)
			}
		case ev.Kind == "hist" && ev.Name == "lat":
			if ev.Count != 2 || ev.Value != 2 {
				t.Fatalf("hist summary %+v", ev)
			}
			if !strings.Contains(ev.Msg, "min=1") || !strings.Contains(ev.Msg, "max=3") {
				t.Fatalf("hist msg %q", ev.Msg)
			}
		}
	}
	if got := r.SpanSeconds(); len(got) != 2 {
		t.Fatalf("span totals %v", got)
	}
}

func TestViolationEventAndCount(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{Sink: NewJSONL(&buf), Invariants: true}
	r := cfg.Recorder("test")
	if !r.Invariants() {
		t.Fatal("invariants not enabled")
	}
	err := r.Violationf(7, 2.5, "mf.class0.mass", "mass %g", 0.5)
	if err == nil || r.Violations() != 1 {
		t.Fatalf("violation not recorded: err=%v n=%d", err, r.Violations())
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	evs := decodeEvents(t, &buf)
	if len(evs) != 1 || evs[0].Kind != "violation" || evs[0].Step != 7 || evs[0].Name != "mf.class0.mass" {
		t.Fatalf("violation events %+v", evs)
	}
}

func TestInvariantHelpers(t *testing.T) {
	var r *Recorder // helpers must work standalone on the nil recorder
	if err := r.CheckNonNegative(1, 0, "f", []float64{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := r.CheckNonNegative(1, 0, "f", []float64{0, -1e-3}); err == nil {
		t.Fatal("negative value passed")
	} else if !strings.Contains(err.Error(), "index 1") {
		t.Fatalf("missing index: %v", err)
	}
	nan := []float64{0, 1, 0}
	nan[2] = nan[2] / 0 * 0 // NaN
	if err := r.CheckNonNegative(1, 0, "f", nan); err == nil {
		t.Fatal("NaN passed")
	}
	if err := r.CheckMass(1, 0, "m", 1.0000001, 1, 1e-6); err != nil {
		t.Fatal(err)
	}
	if err := r.CheckMass(1, 0, "m", 1.5, 1, 1e-6); err == nil {
		t.Fatal("mass breach passed")
	}
	if err := r.CheckFinite(1, 0, "q", -0.5); err == nil {
		t.Fatal("negative scalar passed")
	}
	if err := r.CheckCourant(1, 0, "c", 1.5, 1.0000001); err == nil {
		t.Fatal("Courant breach passed")
	}
	if err := r.CheckMonotoneTail(1, "h", []float64{0, 1, 0.5}); err == nil {
		t.Fatal("time regression passed")
	}
	if err := r.CheckMonotoneTail(1, "h", []float64{0, 1, 1}); err != nil {
		t.Fatal(err)
	}
}

func TestRecorderConcurrency(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{Sink: NewJSONL(&buf)}
	r := cfg.Recorder("conc")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Count("n", 1)
				r.WorkerSpan("cell", w).End()
			}
		}(w)
	}
	wg.Wait()
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, s := range r.SpanSeconds() {
		total += s
	}
	if total < 0 {
		t.Fatal("negative span total")
	}
	evs := decodeEvents(t, &buf)
	for _, ev := range evs {
		if ev.Kind == "counter" && ev.Name == "n" && ev.Count != 800 {
			t.Fatalf("counter %d, want 800", ev.Count)
		}
	}
}

// BenchmarkDisabledRecorder pins the cost of the disabled (nil) path:
// the per-call price an uninstrumented engine step pays at each probe
// gate. It should stay at roughly one branch per call.
func BenchmarkDisabledRecorder(b *testing.B) {
	var r *Recorder
	for i := 0; i < b.N; i++ {
		if r.Enabled() {
			r.Probe("q", float64(i), 1)
		}
		if r.Invariants() {
			_ = r.CheckFinite(int64(i), 0, "q", 1)
		}
	}
}
