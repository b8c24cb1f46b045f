// Package window is the delay-window record the delayed-feedback
// engines keep of their queues. A source observing with delay τ acts
// on the queue as it stood at t−τ, so an engine only ever reads the
// last max τ of its history: the packet simulators (internal/des,
// internal/netsim) look up the last change at or before t−τ, and the
// fluid-limit engines (internal/meanfield, internal/netmf) interpolate
// between per-step samples.
//
// A Window keeps the records in two contiguous slices, times and
// payloads, so both lookups are a binary search over the times. It is
// pruned by the caller's cut only when its slice is full: it then
// drops every record before the last one before the cut, and doubles
// its capacity only when that frees less than half of it. Its
// capacity therefore settles near twice what the delay window holds,
// and once it has, Record allocates nothing.
package window

import "sort"

// minCap is the capacity of a Window's first allocation.
const minCap = 16

// Window is a time-ordered record of payloads. Times must not
// decrease; several records may share one time (a burst of
// same-time events). The zero value is an empty window ready to use.
type Window[P any] struct {
	t []float64
	p []P // p[i] is the payload recorded at t[i]; cap(p) == cap(t)
}

// Record appends payload p at time t. cut is the oldest time the
// caller will look up again: when the window is full, every record
// before the last one strictly before cut is dropped, so lookups at
// cut or later still resolve exactly as over the whole record.
func (w *Window[P]) Record(t float64, p P, cut float64) {
	if len(w.t) == cap(w.t) {
		w.makeRoom(cut)
	}
	w.t = append(w.t, t)
	w.p = append(w.p, p)
}

// makeRoom frees the records that lie wholly before cut, compacting
// in place when that frees at least half the window and moving to a
// twice-as-large one otherwise.
func (w *Window[P]) makeRoom(cut float64) {
	n := len(w.t)
	k := max(sort.SearchFloat64s(w.t, cut)-1, 0) // the last record before cut stays
	if k > 0 && 2*k >= n {
		w.t = w.t[:copy(w.t, w.t[k:])]
		w.p = w.p[:copy(w.p, w.p[k:])]
		return
	}
	c := max(2*n, minCap)
	t, p := make([]float64, n-k, c), make([]P, n-k, c)
	copy(t, w.t[k:])
	copy(p, w.p[k:])
	w.t, w.p = t, p
}

// TailTimes returns the times of the most recent (up to) two records,
// oldest first, as a view of the window: what the per-event
// history-monotonicity invariant inspects (each change records once,
// so checking the tail at every event covers the whole series).
func (w *Window[P]) TailTimes() []float64 {
	if n := len(w.t); n > 2 {
		return w.t[n-2:]
	}
	return w.t
}

// Latest returns the payload of the last record at or before t, or
// the zero payload when t precedes every record. Records sharing a
// time resolve to the last of them: the state at t is the state after
// everything that happened at t.
func (w *Window[P]) Latest(t float64) P {
	if k := sort.Search(len(w.t), func(i int) bool { return w.t[i] > t }) - 1; k >= 0 {
		return w.p[k]
	}
	var zero P
	return zero
}

// Interp returns the payload of w at time t, linearly interpolated
// between records and clamped to the recorded range (0 on an empty
// window). Where records share a time, a t strictly inside the range
// reads the first of them.
func Interp(w *Window[float64], t float64) float64 {
	ts, qs := w.t, w.p
	n := len(ts)
	if n == 0 {
		return 0
	}
	if t <= ts[0] {
		return qs[0]
	}
	if t >= ts[n-1] {
		return qs[n-1]
	}
	k := sort.SearchFloat64s(ts, t)
	t0, t1 := ts[k-1], ts[k]
	if t1 == t0 {
		return qs[k]
	}
	frac := (t - t0) / (t1 - t0)
	return qs[k-1] + frac*(qs[k]-qs[k-1])
}
