package eventq

import (
	"sort"
	"testing"

	"fpcc/internal/rng"
)

type ev struct {
	t   float64
	seq uint64
}

func (e ev) Key() (float64, uint64) { return e.t, e.seq }

// TestPopOrder: events pop in (t, seq) order regardless of push
// order, including FIFO ordering of simultaneous events.
func TestPopOrder(t *testing.T) {
	r := rng.New(1)
	var q Q[ev]
	var want []ev
	for seq := uint64(0); seq < 2000; seq++ {
		// Coarse times force plenty of ties to exercise the seq
		// tie-breaker.
		e := ev{t: float64(r.Intn(50)), seq: seq}
		q.Push(e)
		want = append(want, e)
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].t != want[j].t {
			return want[i].t < want[j].t
		}
		return want[i].seq < want[j].seq
	})
	for i, w := range want {
		if q.Len() != len(want)-i {
			t.Fatalf("Len = %d at pop %d, want %d", q.Len(), i, len(want)-i)
		}
		if got := q.Pop(); got != w {
			t.Fatalf("pop %d = %+v, want %+v", i, got, w)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("queue not empty after draining: Len = %d", q.Len())
	}
}

// TestInterleaved: pushes interleaved with pops keep the order.
func TestInterleaved(t *testing.T) {
	var q Q[ev]
	q.Push(ev{t: 5, seq: 0})
	q.Push(ev{t: 1, seq: 1})
	if e := q.Pop(); e.t != 1 {
		t.Fatalf("got t=%v, want 1", e.t)
	}
	q.Push(ev{t: 3, seq: 2})
	q.Push(ev{t: 3, seq: 3})
	q.Push(ev{t: 0.5, seq: 4})
	for i, want := range []ev{{0.5, 4}, {3, 2}, {3, 3}, {5, 0}} {
		if got := q.Pop(); got != want {
			t.Fatalf("pop %d = %+v, want %+v", i, got, want)
		}
	}
}

// TestPopBatchMatchesRepeatedPop is the property test for same-time
// burst semantics: for random event sets with many timestamp ties,
// draining the queue with PopBatch must yield exactly the sequence
// repeated Pop produces, with each batch holding all events of one
// timestamp and nothing else.
func TestPopBatchMatchesRepeatedPop(t *testing.T) {
	for trial := uint64(0); trial < 20; trial++ {
		r := rng.New(100 + trial)
		n := 1 + r.Intn(800)
		var qPop, qBatch Q[ev]
		for seq := 0; seq < n; seq++ {
			// Few distinct times => large bursts.
			e := ev{t: float64(r.Intn(1 + n/20)), seq: uint64(seq)}
			qPop.Push(e)
			qBatch.Push(e)
		}
		var ref []ev
		for qPop.Len() > 0 {
			ref = append(ref, qPop.Pop())
		}
		var got []ev
		batch := make([]ev, 0, 64)
		for qBatch.Len() > 0 {
			batch = qBatch.PopBatch(batch[:0])
			if len(batch) == 0 {
				t.Fatalf("trial %d: empty batch from non-empty queue", trial)
			}
			for _, e := range batch[1:] {
				if e.t != batch[0].t {
					t.Fatalf("trial %d: batch mixes timestamps %v and %v", trial, batch[0].t, e.t)
				}
			}
			if len(got) > 0 && got[len(got)-1].t == batch[0].t {
				t.Fatalf("trial %d: batch at t=%v left same-time events behind", trial, batch[0].t)
			}
			got = append(got, batch...)
		}
		if len(got) != len(ref) {
			t.Fatalf("trial %d: PopBatch drained %d events, Pop drained %d", trial, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("trial %d: event %d = %+v via PopBatch, %+v via Pop", trial, i, got[i], ref[i])
			}
		}
	}
}

// TestPopBatchReusesBuffer: passing dst[:0] must append into the
// existing backing array when capacity suffices.
func TestPopBatchReusesBuffer(t *testing.T) {
	var q Q[ev]
	for seq := uint64(0); seq < 8; seq++ {
		q.Push(ev{t: 1, seq: seq})
	}
	buf := make([]ev, 0, 16)
	got := q.PopBatch(buf)
	if len(got) != 8 {
		t.Fatalf("batch len = %d, want 8", len(got))
	}
	if &got[0] != &buf[:1][0] {
		t.Fatalf("PopBatch reallocated despite sufficient capacity")
	}
	if q.PopBatch(got[:0]); q.Len() != 0 {
		t.Fatalf("queue not empty")
	}
}

// TestSeqWraparoundTieBreak: FIFO tie-breaking must survive the
// sequence counter wrapping through zero. Insertion order here is
// (MaxUint64-1, MaxUint64, 0, 1) at one timestamp; modular comparison
// keeps that order, while a plain < would pop the post-wrap events
// first.
func TestSeqWraparoundTieBreak(t *testing.T) {
	const m = ^uint64(0)
	var q Q[ev]
	insertion := []uint64{m - 1, m, 0, 1}
	// Push in scrambled order: heap order must come from the key, not
	// from push order.
	for _, i := range []int{2, 0, 3, 1} {
		q.Push(ev{t: 7, seq: insertion[i]})
	}
	for i, want := range insertion {
		if got := q.Pop(); got.seq != want {
			t.Fatalf("pop %d = seq %d, want %d", i, got.seq, want)
		}
	}
	// The same order must hold through PopBatch.
	for _, i := range []int{1, 3, 0, 2} {
		q.Push(ev{t: 7, seq: insertion[i]})
	}
	batch := q.PopBatch(nil)
	for i, want := range insertion {
		if batch[i].seq != want {
			t.Fatalf("batch[%d] = seq %d, want %d", i, batch[i].seq, want)
		}
	}
}
