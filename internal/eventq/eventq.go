// Package eventq is the event queue shared by every discrete-event
// simulator in the repository: a binary min-heap ordered by
// (time, sequence number). The strict total order — time first, then
// insertion sequence as the tie-breaker — is what makes the
// simulators deterministic for a given seed: simultaneous events pop
// in FIFO order, never in heap-internal order.
//
// The heap is generic over the simulator's event type, so each
// simulator keeps its own plain event struct (no boxing through
// container/heap's `any`) and implements the one-line Key method.
// Each heap slot caches the event's (time, sequence) key next to the
// event: Key is read once, at Push, and every compare reads the
// cached pair inline instead of calling Key through the generic
// dictionary. Sifts move a hole — one slot copy per level — and
// write the moving entry once, where the hole stops.
package eventq

// Event exposes the (time, sequence) ordering key of a simulator
// event. Sequence numbers must be unique per queue, which makes the
// order strict. The queue reads Key once, when the event is pushed,
// so the key must not change while the event is queued.
type Event interface {
	Key() (t float64, seq uint64)
}

// seqBefore reports whether sequence number a was issued before b
// under modular (wraparound-safe) comparison: a precedes b when the
// forward distance from a to b is less than half the sequence space.
// A simulator that issues sequence numbers from a wrapping counter
// keeps FIFO tie-breaking as long as fewer than 2⁶³ events are in
// flight at once — a plain a < b would instead jump every pre-wrap
// event behind every post-wrap one.
func seqBefore(a, b uint64) bool { return int64(a-b) < 0 }

// before reports whether key (ta, sa) orders before key (tb, sb).
func before(ta float64, sa uint64, tb float64, sb uint64) bool {
	if ta != tb {
		return ta < tb
	}
	return seqBefore(sa, sb)
}

// entry is one heap slot: an event with its cached key.
type entry[E Event] struct {
	t   float64
	seq uint64
	e   E
}

// Q is a binary min-heap of events ordered by (time, sequence).
// The zero value is an empty queue ready for use.
type Q[E Event] struct {
	es []entry[E]
}

// Len returns the number of queued events.
func (q *Q[E]) Len() int { return len(q.es) }

// Push adds an event to the queue.
func (q *Q[E]) Push(e E) {
	t, seq := e.Key()
	q.es = append(q.es, entry[E]{})
	es := q.es
	// Sift up: move the hole from the new last slot toward the root
	// while its parent orders after the new key.
	i := len(es) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !before(t, seq, es[parent].t, es[parent].seq) {
			break
		}
		es[i] = es[parent]
		i = parent
	}
	es[i] = entry[E]{t: t, seq: seq, e: e}
}

// Pop removes and returns the earliest event. It panics on an empty
// queue (callers guard with Len, as with container/heap).
func (q *Q[E]) Pop() E {
	top := q.es[0].e
	n := len(q.es) - 1
	last := q.es[n]
	q.es[n] = entry[E]{} // release references held by the vacated slot
	q.es = q.es[:n]
	if n > 0 {
		q.siftDown(last)
	}
	return top
}

// siftDown fills the hole at the root with x: it moves the hole down
// past every child that orders before x and writes x where it stops.
func (q *Q[E]) siftDown(x entry[E]) {
	es := q.es
	n := len(es)
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && before(es[right].t, es[right].seq, es[child].t, es[child].seq) {
			child = right
		}
		if !before(es[child].t, es[child].seq, x.t, x.seq) {
			break
		}
		es[i] = es[child]
		i = child
	}
	es[i] = x
}

// NextTime returns the timestamp of the earliest queued event. It
// panics on an empty queue (callers guard with Len, as with Pop).
func (q *Q[E]) NextTime() float64 { return q.es[0].t }

// PopBatch removes every event sharing the earliest queued timestamp
// — a same-time burst — and appends them to dst in (time, sequence)
// order, returning the extended slice. Passing dst[:0] reuses its
// backing array, so a simulator's event loop can drain bursts without
// per-event allocation. The appended order is exactly the order
// repeated Pop calls would produce, so switching a loop from Pop to
// PopBatch never reorders processing. An empty queue returns dst
// unchanged.
//
// Events pushed while the caller processes the batch — including new
// events at the very same timestamp — are not part of it: they pop in
// a later batch, which again matches repeated Pop (their sequence
// numbers order them after every drained event).
func (q *Q[E]) PopBatch(dst []E) []E {
	if len(q.es) == 0 {
		return dst
	}
	t0 := q.es[0].t
	for {
		dst = append(dst, q.Pop())
		if len(q.es) == 0 || q.es[0].t != t0 {
			return dst
		}
	}
}
