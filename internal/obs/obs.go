// Package obs is the observability layer shared by every engine in
// this repository: counters, monotonic span timers, periodic per-step
// probes, and a fail-fast invariant checker, all behind a *Recorder
// whose disabled default — a nil pointer — is a true no-op.
//
// # Zero overhead when off
//
// Every Recorder method begins with an inlineable nil check, so an
// uninstrumented run pays exactly one predictable branch per call
// site and touches no memory. Engines additionally gate any work
// needed only to FEED the recorder (an O(N) moment pass, a mass
// integral) behind Enabled/Invariants/ProbeDue, so a nil recorder
// costs nothing beyond the branch. The determinism contract is
// absolute: attaching or detaching a recorder never changes a single
// bit of any engine observable (enforced by the suite byte-identity
// test in internal/experiments).
//
// # Event stream
//
// When a JSONL sink is attached, probes, span timings, and invariant
// violations stream out as one JSON object per line (Event), cheap
// enough to leave running for whole experiment suites. Counters and
// span totals accumulate in memory and are emitted as summary events
// by Flush.
//
// # Invariants
//
// The checker half of the package (invariants.go) verifies the
// conservation laws the solvers are built on — density mass budgets,
// non-negativity, CFL margins, history time-monotonicity — and fails
// fast with step-stamped context: a violation is an error carrying
// the exact step, time, and field, returned from the engine's Step so
// the run stops at the first corrupted state rather than rendering a
// poisoned table.
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Event is one observability record: a probe sample, a span timing, a
// counter or span-total summary, or an invariant violation. Events
// marshal to single-line JSON in the trace stream.
type Event struct {
	// Kind is "probe", "span", "span_total", "counter", "violation",
	// or, in a flight-recorder dump, "flight" and "flight.<kind>".
	Kind string `json:"kind"`
	// Scope identifies the recorder that emitted the event (an
	// experiment id, a CLI name, a sweep cell).
	Scope string `json:"scope,omitempty"`
	Name  string `json:"name"`
	// Step and T stamp the simulation step and time of probes and
	// violations.
	Step int64   `json:"step,omitempty"`
	T    float64 `json:"t,omitempty"`
	// Value carries the probe sample or the span seconds.
	Value float64 `json:"value,omitempty"`
	Count int64   `json:"count,omitempty"`
	// Worker is the 1-based worker index of an attributed span
	// (0 = unattributed).
	Worker int    `json:"worker,omitempty"`
	Msg    string `json:"msg,omitempty"`
	// Wall is the wall-clock emission time in seconds since process
	// start, stamped by the JSONL sink. For "span" events it marks the
	// span's END; the start is Wall − Value. The Chrome trace exporter
	// (internal/obs/chrometrace) places spans on its timeline with it.
	Wall float64 `json:"wall,omitempty"`
}

// eventAlias strips Event's methods so the marshallers below can
// recurse into the plain struct encoding.
type eventAlias Event

// MarshalJSON encodes the event, spelling non-finite floats as
// strings ("NaN", "+Inf", "-Inf"): JSON has no non-finite numbers,
// and a poisoned probe sample is exactly the evidence a post-mortem
// trace must not drop. Finite events (the overwhelmingly common case)
// take the plain struct path, byte-identical to the default encoding.
func (e Event) MarshalJSON() ([]byte, error) {
	if isFinite(e.T) && isFinite(e.Value) && isFinite(e.Wall) {
		return json.Marshal(eventAlias(e))
	}
	clean := e
	clean.T, clean.Value, clean.Wall = 0, 0, 0
	raw, err := json.Marshal(eventAlias(clean))
	if err != nil {
		return nil, err
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, err
	}
	for _, f := range []struct {
		key string
		v   float64
	}{{"t", e.T}, {"value", e.Value}, {"wall", e.Wall}} {
		switch {
		case !isFinite(f.v):
			m[f.key] = fmt.Sprint(f.v)
		case f.v != 0:
			m[f.key] = f.v
		}
	}
	return json.Marshal(m)
}

// UnmarshalJSON accepts both numeric and stringified non-finite
// forms of the float fields.
func (e *Event) UnmarshalJSON(data []byte) error {
	var wire struct {
		eventAlias
		T     json.RawMessage `json:"t"`
		Value json.RawMessage `json:"value"`
		Wall  json.RawMessage `json:"wall"`
	}
	if err := json.Unmarshal(data, &wire); err != nil {
		return err
	}
	*e = Event(wire.eventAlias)
	var err error
	if e.T, err = floatField(wire.T); err != nil {
		return fmt.Errorf("obs: event field t: %w", err)
	}
	if e.Value, err = floatField(wire.Value); err != nil {
		return fmt.Errorf("obs: event field value: %w", err)
	}
	if e.Wall, err = floatField(wire.Wall); err != nil {
		return fmt.Errorf("obs: event field wall: %w", err)
	}
	return nil
}

// floatField decodes a float that may be spelled as a JSON string
// ("NaN", "+Inf", "-Inf"). Absent fields decode to 0.
func floatField(raw json.RawMessage) (float64, error) {
	if len(raw) == 0 {
		return 0, nil
	}
	var f float64
	if err := json.Unmarshal(raw, &f); err == nil {
		return f, nil
	}
	var s string
	if err := json.Unmarshal(raw, &s); err != nil {
		return 0, err
	}
	return strconv.ParseFloat(s, 64)
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// epoch anchors Event.Wall: seconds since process start.
var epoch = time.Now()

// sinceEpoch returns the current wall-clock offset for Event.Wall.
func sinceEpoch() float64 { return time.Since(epoch).Seconds() }

// JSONL is a concurrency-safe streaming sink writing one Event per
// line. Create with NewJSONL, share it between any number of
// Recorders, and Flush (or Close the underlying file) when done.
//
// Lines are serialized whole: every event is marshaled OUTSIDE the
// write lock and appended to the stream in a single locked write, so
// concurrent writers (per-experiment Child recorders under the
// two-level scheduler all share one sink) can never tear a line, no
// matter how event sizes relate to the internal buffer size. Emitted
// events are stamped with Event.Wall (seconds since process start).
type JSONL struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	err error
}

// NewJSONL wraps w in a buffered JSONL event sink.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{bw: bufio.NewWriterSize(w, 1<<16)}
}

// Emit writes one event line. Safe on a nil sink (drops the event)
// and from any goroutine.
func (s *JSONL) Emit(ev Event) {
	if s == nil {
		return
	}
	if ev.Wall == 0 {
		ev.Wall = sinceEpoch()
	}
	line, err := json.Marshal(ev)
	s.mu.Lock()
	if err != nil {
		if s.err == nil {
			s.err = err
		}
	} else {
		line = append(line, '\n')
		if _, werr := s.bw.Write(line); werr != nil && s.err == nil {
			s.err = werr
		}
	}
	s.mu.Unlock()
}

// EmitBatch writes a sequence of event lines contiguously: the whole
// batch is marshaled first and appended under one lock acquisition,
// so no event from another writer can interleave inside it. The
// flight recorder uses it to keep post-mortem dumps in one block of
// the trace.
func (s *JSONL) EmitBatch(evs []Event) {
	if s == nil || len(evs) == 0 {
		return
	}
	now := sinceEpoch()
	var block []byte
	var firstErr error
	for _, ev := range evs {
		if ev.Wall == 0 {
			ev.Wall = now
		}
		line, err := json.Marshal(ev)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		block = append(block, line...)
		block = append(block, '\n')
	}
	s.mu.Lock()
	if firstErr != nil && s.err == nil {
		s.err = firstErr
	}
	if _, werr := s.bw.Write(block); werr != nil && s.err == nil {
		s.err = werr
	}
	s.mu.Unlock()
}

// Flush drains the buffer to the underlying writer and returns the
// first write error encountered, if any.
func (s *JSONL) Flush() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.bw.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	return s.err
}

// DefaultProbeDt is the probe sampling interval in simulation
// seconds: fine enough to resolve the paper's oscillation periods
// (tens of seconds), coarse enough that a long run stays a few
// thousand lines per series.
const DefaultProbeDt = 0.25

// flightRing is the flight-recorder capacity: the number of most
// recent events each recorder keeps while invariant checks are on.
// When a Violation fires, the ring rides on it as Recent and is
// dumped to the sink as one contiguous "flight.*" block, so a fault
// post-mortem does not require re-running with full tracing.
const flightRing = 256

// DefaultMassTol is the relative tolerance of the density mass-budget
// invariant checks. The solvers' transport is conservative to
// rounding, so the budget drift over a long run stays orders of
// magnitude below this.
const DefaultMassTol = 1e-6

// Config describes an observability setup: where events stream and
// whether invariants run. The zero value (and a nil *Config) disables
// everything.
type Config struct {
	// Sink receives the event stream (nil discards probes and spans;
	// counters and span totals still accumulate for Summary/Flush).
	Sink *JSONL
	// Invariants enables the per-step invariant checks in every
	// engine holding a Recorder from this Config, and with them the
	// flight recorder: each recorder keeps its flightRing most recent
	// events (whether or not a sink is attached) for the post-mortem
	// a Violation carries.
	Invariants bool
	// OnRecorder, when non-nil, observes every root recorder created
	// from this config (Child recorders are reached through their
	// parent's Summary tree). The obscli layer uses it to attach
	// recorders created deep inside the suite runner to the live
	// monitoring surface. Must be safe for concurrent calls: parallel
	// suite workers create recorders concurrently.
	OnRecorder func(*Recorder)
}

// Recorder returns a new recorder bound to this config under the
// given scope. A nil *Config returns a nil *Recorder — the no-op
// default every engine accepts.
func (c *Config) Recorder(scope string) *Recorder {
	if c == nil {
		return nil
	}
	r := &Recorder{cfg: *c, scope: scope}
	if c.OnRecorder != nil {
		c.OnRecorder(r)
	}
	return r
}

// spanKey identifies a span accumulator: name plus the 0-based worker
// index (-1 for unattributed spans).
type spanKey struct {
	name   string
	worker int
}

type spanStat struct {
	total time.Duration
	count int64
}

// probeStat tracks one probe series: its sample count and last
// (value, simulation-time) pair — the live reading the HTTP metrics
// surface exports between flushes.
type probeStat struct {
	count int64
	last  float64
	lastT float64
}

// Recorder collects metrics for one scope (an experiment, a CLI run,
// a sweep cell). All methods are safe on a nil receiver — the
// disabled default — and safe for concurrent use; engines keep their
// hot paths cheap by gating any feeding work behind Enabled,
// Invariants, and ProbeDue.
type Recorder struct {
	cfg    Config
	scope  string
	parent *Recorder

	mu         sync.Mutex
	counters   map[string]int64
	spans      map[spanKey]*spanStat
	probes     map[string]*probeStat
	violations int64
	resources  *Resources
	children   []*Recorder
	// ring is the flight recorder (cfg.Invariants): a circular buffer
	// of the flightRing most recent events this recorder emitted.
	ring      []Event
	ringStart int
}

// Enabled reports whether the recorder is live. Engines use it to
// gate probe computation; a nil recorder reports false.
func (r *Recorder) Enabled() bool { return r != nil }

// Invariants reports whether the per-step invariant checks should
// run.
func (r *Recorder) Invariants() bool { return r != nil && r.cfg.Invariants }

// Child returns a recorder sharing this recorder's config (sink,
// invariants and with them the flight recorder) under a nested
// scope — e.g. one per sweep cell, so interleaved probe series from
// concurrent cells stay distinguishable in the trace. The child is
// registered with its parent, so Summary sees the whole hierarchy
// and merges it deterministically. A nil receiver returns nil.
func (r *Recorder) Child(scope string) *Recorder {
	if r == nil {
		return nil
	}
	c := &Recorder{cfg: r.cfg, scope: r.scope + "/" + scope, parent: r}
	r.mu.Lock()
	r.children = append(r.children, c)
	r.mu.Unlock()
	return c
}

func (r *Recorder) emit(ev Event) {
	ev.Scope = r.scope
	if r.cfg.Invariants {
		r.mu.Lock()
		r.ringAdd(ev)
		r.mu.Unlock()
	}
	r.cfg.Sink.Emit(ev)
}

// ringAdd appends ev to the flight-recorder ring, overwriting the
// oldest entry once full. Callers hold r.mu.
func (r *Recorder) ringAdd(ev Event) {
	if len(r.ring) < flightRing {
		r.ring = append(r.ring, ev)
		return
	}
	r.ring[r.ringStart] = ev
	r.ringStart = (r.ringStart + 1) % flightRing
}

// ringSnapshot copies the flight ring oldest-first. Callers hold r.mu.
func (r *Recorder) ringSnapshot() []Event {
	if len(r.ring) == 0 {
		return nil
	}
	out := make([]Event, 0, len(r.ring))
	for i := 0; i < len(r.ring); i++ {
		out = append(out, r.ring[(r.ringStart+i)%len(r.ring)])
	}
	return out
}

// Count adds delta to the named counter.
func (r *Recorder) Count(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.counters == nil {
		r.counters = make(map[string]int64)
	}
	r.counters[name] += delta
	r.mu.Unlock()
}

// ProbeDue reports whether the named probe series is due for a sample
// at simulation time t — true when no sample exists yet or at least
// DefaultProbeDt has elapsed since the last one. Engines call it
// BEFORE computing an expensive probe value, so a between-samples step
// pays only the check. Always false on a nil recorder.
func (r *Recorder) ProbeDue(name string, t float64) bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.probes[name]
	return !ok || t >= p.lastT+DefaultProbeDt
}

// Probe records one sample of the named series at simulation time t,
// updating the series' rate-limit clock and last value (the live
// reading obshttp exports) and emitting a "probe" event.
func (r *Recorder) Probe(name string, t, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.probes == nil {
		r.probes = make(map[string]*probeStat)
	}
	p := r.probes[name]
	if p == nil {
		p = &probeStat{}
		r.probes[name] = p
	}
	p.count++
	p.last, p.lastT = v, t
	r.mu.Unlock()
	r.emit(Event{Kind: "probe", Name: name, T: t, Value: v})
}

// Span is an in-flight monotonic timer returned by Recorder.Span; End
// stops it. The zero Span (from a nil recorder) is a no-op.
type Span struct {
	r      *Recorder
	name   string
	worker int // 0-based; -1 unattributed
	start  time.Time
}

// Span starts an unattributed monotonic timer under the given name.
func (r *Recorder) Span(name string) Span { return r.WorkerSpan(name, -1) }

// WorkerSpan starts a monotonic timer attributed to the 0-based
// worker index that executes the timed region (sweep cells, suite
// experiments).
func (r *Recorder) WorkerSpan(name string, worker int) Span {
	if r == nil {
		return Span{}
	}
	return Span{r: r, name: name, worker: worker, start: time.Now()}
}

// End stops the span, accumulating its duration into the recorder's
// totals and emitting a "span" event.
func (s Span) End() {
	if s.r == nil {
		return
	}
	d := time.Since(s.start)
	r := s.r
	r.mu.Lock()
	if r.spans == nil {
		r.spans = make(map[spanKey]*spanStat)
	}
	k := spanKey{s.name, s.worker}
	st := r.spans[k]
	if st == nil {
		st = &spanStat{}
		r.spans[k] = st
	}
	st.total += d
	st.count++
	r.mu.Unlock()
	r.emit(Event{Kind: "span", Name: s.name, Worker: s.worker + 1, Value: d.Seconds()})
}

// sortedSpanKeys orders span accumulators by (name, worker) — the
// deterministic iteration order for sums and summaries.
func sortedSpanKeys(m map[spanKey]*spanStat) []spanKey {
	ks := make([]spanKey, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].name != ks[j].name {
			return ks[i].name < ks[j].name
		}
		return ks[i].worker < ks[j].worker
	})
	return ks
}

// SetResources attaches the resource delta of the recorder's whole
// scope, which Summary then carries. The suite runner calls it only
// when one experiment runs at a time, so the process-wide counters
// the delta is read from are the experiment's alone.
func (r *Recorder) SetResources(res Resources) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.resources = &res
	r.mu.Unlock()
}

// Violations returns the number of invariant violations recorded.
func (r *Recorder) Violations() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.violations
}

// Flush emits summary events for every counter and span total
// (sorted by name, so traces are deterministic given deterministic
// values) and flushes the sink. Call it once at the end of the
// scope's run.
func (r *Recorder) Flush() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	counters := make([]string, 0, len(r.counters))
	for n := range r.counters {
		counters = append(counters, n)
	}
	sort.Strings(counters)
	spanKeys := sortedSpanKeys(r.spans)
	var evs []Event
	for _, n := range counters {
		evs = append(evs, Event{Kind: "counter", Name: n, Count: r.counters[n]})
	}
	for _, k := range spanKeys {
		st := r.spans[k]
		evs = append(evs, Event{
			Kind: "span_total", Name: k.name, Worker: k.worker + 1,
			Count: st.count, Value: st.total.Seconds(),
		})
	}
	r.mu.Unlock()
	for _, ev := range evs {
		r.emit(ev)
	}
	return r.cfg.Sink.Flush()
}
