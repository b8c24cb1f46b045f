package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestSummarySnapshot pins the Summary tree shape: per-recorder
// aggregates, worker-summed spans, and children sorted by scope.
func TestSummarySnapshot(t *testing.T) {
	r := (&Config{}).Recorder("root")
	r.Count("events", 3)
	r.Probe("series", 1.0, 42)
	r.Probe("series", 2.0, 43)
	r.WorkerSpan("step", 0).End()
	r.WorkerSpan("step", 1).End()
	cb := r.Child("b")
	ca := r.Child("a")
	ca.Count("events", 1)
	cb.Count("events", 2)

	s := r.Summary()
	if s.Scope != "root" || s.Counters["events"] != 3 {
		t.Fatalf("bad root snapshot: %+v", s)
	}
	p := s.Probes["series"]
	if p.Count != 2 || p.Last != 43 || p.LastT != 2.0 {
		t.Errorf("probe summary = %+v, want count 2 last 43 at t=2", p)
	}
	if sp := s.Spans["step"]; len(s.Spans) != 1 || sp.Count != 2 || sp.Seconds < 0 {
		t.Errorf("span summary = %+v, want one name with 2 worker-summed spans", s.Spans)
	}
	if len(s.Children) != 2 || s.Children[0].Scope != "root/a" || s.Children[1].Scope != "root/b" {
		t.Fatalf("children not sorted by scope: %+v", s.Children)
	}

	roll := s.Rollup()
	if roll.Counters["events"] != 6 {
		t.Errorf("rolled-up counter = %d, want 6", roll.Counters["events"])
	}
	if roll.Children != nil {
		t.Error("rollup must flatten children")
	}
}

// TestSummaryDeterministicJSON requires two identically-fed recorders
// to marshal byte-identical manifests — the contract that makes
// summary diffs meaningful.
func TestSummaryDeterministicJSON(t *testing.T) {
	build := func(seed int) []byte {
		r := (&Config{}).Recorder("run")
		// Insertion order varies with seed; the snapshot must not.
		names := []string{"a", "b", "c", "d"}
		for i := range names {
			n := names[(i+seed)%len(names)]
			r.Count(n, int64(len(n)))
			r.Probe("p."+n, 1, float64(strings.IndexByte("abcd", n[0])+1))
			r.Child(n).Count("inner", 1)
		}
		raw, err := json.Marshal(r.Summary())
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	if a, b := build(0), b2(build); !bytes.Equal(a, b) {
		t.Errorf("summaries differ across insertion orders:\n%s\n%s", a, b)
	}
}

func b2(build func(int) []byte) []byte { return build(2) }

// TestFlightRingWraparound fills the ring past capacity and checks
// the snapshot keeps exactly the newest events, oldest first.
func TestFlightRingWraparound(t *testing.T) {
	r := (&Config{Invariants: true}).Recorder("x")
	const emitted = flightRing + 10
	for i := 0; i < emitted; i++ {
		r.Probe("p", float64(i), float64(i))
	}
	err := r.Violationf(emitted, emitted, "x.f", "boom")
	v := err.(*Violation)
	if len(v.Recent) != flightRing {
		t.Fatalf("ring kept %d events, want %d", len(v.Recent), flightRing)
	}
	for i, ev := range v.Recent {
		if want := float64(emitted - flightRing + i); ev.T != want {
			t.Errorf("ring[%d].T = %g, want %g (newest %d, oldest first)", i, ev.T, want, flightRing)
		}
	}
	if !strings.Contains(v.Error(), fmt.Sprintf("%d preceding events", flightRing)) {
		t.Errorf("violation error does not mention the dump: %v", v)
	}
}

// TestSpanSecondsDeterministic pins the per-phase span totals the
// suite's bench entries read from Summary().Spans: every worker's
// spans are summed under their name however goroutines interleaved,
// because accumulation iterates keys in sorted (name, worker) order.
func TestSpanSecondsDeterministic(t *testing.T) {
	build := func() map[string]SpanSummary {
		r := (&Config{}).Recorder("x")
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					r.WorkerSpan("step", w).End()
					r.WorkerSpan("render", w).End()
				}
			}(w)
		}
		wg.Wait()
		return r.Summary().Spans
	}
	a, b := build(), build()
	if len(a) != 2 || len(b) != 2 {
		t.Fatalf("span names lost: %v %v", a, b)
	}
	for _, m := range []map[string]SpanSummary{a, b} {
		for name, sp := range m {
			if sp.Count != 8*50 || sp.Seconds < 0 {
				t.Errorf("%s: %d spans of %g s, want 400 of non-negative time", name, sp.Count, sp.Seconds)
			}
		}
	}
}

// TestResourcesDelta checks ReadResources moves forward and Sub/Add
// round-trip.
func TestResourcesDelta(t *testing.T) {
	before := ReadResources()
	waste := make([]byte, 1<<20)
	_ = waste[len(waste)-1]
	after := ReadResources()
	d := after.Sub(before)
	if d.WallSeconds < 0 || d.CPUSeconds < 0 {
		t.Errorf("negative time delta: %+v", d)
	}
	if d.AllocBytes == 0 || d.Mallocs == 0 {
		t.Errorf("allocation not attributed: %+v", d)
	}
	if rt := before.Add(d); rt != after {
		t.Errorf("Add(Sub) round-trip: %+v != %+v", rt, after)
	}
}

// TestJSONLNoInterleaving is the whole-line serialization regression
// test: many goroutines — child recorders sharing one sink — emit
// events whose marshaled size exceeds the sink's 64KB buffer, forcing
// mid-line flushes; every line of the output must still parse as one
// event. (Marshal-outside-lock plus a single locked write per line is
// what guarantees this.)
func TestJSONLNoInterleaving(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	root := (&Config{Sink: sink}).Recorder("root")
	big := strings.Repeat("x", 80<<10) // bigger than the 64KB buffer
	var wg sync.WaitGroup
	const writers, perWriter = 8, 40
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := root.Child(fmt.Sprintf("w%d", w))
			for i := 0; i < perWriter; i++ {
				sink.Emit(Event{Kind: "probe", Scope: c.scope, Name: "big", T: float64(i), Msg: big})
				c.Probe("small", float64(i), float64(w))
			}
		}(w)
	}
	wg.Wait()
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines := 0
	for sc.Scan() {
		lines++
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d is torn or malformed: %v", lines, err)
		}
		if ev.Wall == 0 {
			t.Fatalf("line %d missing the sink's wall stamp", lines)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if want := writers * perWriter * 2; lines != want {
		t.Fatalf("trace has %d lines, want %d", lines, want)
	}
}

// TestEmitBatchContiguous interleaves batch dumps with concurrent
// single emits and requires every batch to appear as a contiguous
// run of lines.
func TestEmitBatchContiguous(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				sink.Emit(Event{Kind: "probe", Name: "noise", T: float64(i)})
			}
		}
	}()
	const batches, batchLen = 20, 5
	for b := 0; b < batches; b++ {
		batch := make([]Event, batchLen)
		for i := range batch {
			batch[i] = Event{Kind: "flight.probe", Name: fmt.Sprintf("b%d", b), Step: int64(i)}
		}
		sink.EmitBatch(batch)
	}
	close(stop)
	wg.Wait()
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	run := 0 // position inside the current batch, 0 = outside
	name := ""
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Kind == "flight.probe" {
			if run > 0 && (ev.Name != name || ev.Step != int64(run)) {
				t.Fatalf("batch %s interrupted at step %d by %s/%d", name, run, ev.Name, ev.Step)
			}
			name = ev.Name
			run = (run + 1) % batchLen
		} else if run != 0 {
			t.Fatalf("noise event inside batch %s at position %d", name, run)
		}
	}
}
