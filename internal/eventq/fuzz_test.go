package eventq

import (
	"math"
	"testing"
)

// oracleEv is an event in the sorted-slice oracle. n is its insertion
// index, which never wraps, so (t, n) is the order the queue's
// (t, seq) must reproduce whatever the sequence counter's offset.
type oracleEv struct {
	e ev
	n uint64
}

// oracle is a queue kept as a slice sorted by (t, n).
type oracle []oracleEv

func (o *oracle) push(e ev, n uint64) {
	s := *o
	i := len(s)
	for i > 0 && (s[i-1].e.t > e.t || s[i-1].e.t == e.t && s[i-1].n > n) {
		i--
	}
	s = append(s, oracleEv{})
	copy(s[i+1:], s[i:])
	s[i] = oracleEv{e: e, n: n}
	*o = s
}

func (o *oracle) pop() ev {
	e := (*o)[0].e
	*o = (*o)[1:]
	return e
}

// fuzzTime maps a 6-bit argument onto a coarse lattice of eight times
// (0, 0.25, …, 1.75) plus +Inf, so ties are common.
func fuzzTime(arg byte) float64 {
	if arg == 63 {
		return math.Inf(1)
	}
	return float64(arg/8) * 0.25
}

// checkHeap verifies the queue's layout: one cached key per event that
// equals the event's Key, heap order between every slot and its
// parent, and zeroed slots past the end.
func checkHeap(t *testing.T, q *Q[ev], step int) {
	t.Helper()
	for i, s := range q.es {
		if et, eseq := s.e.Key(); et != s.t || eseq != s.seq {
			t.Fatalf("op %d: slot %d caches key (%v, %d), event has (%v, %d)", step, i, s.t, s.seq, et, eseq)
		}
		if p := (i - 1) / 2; i > 0 && before(s.t, s.seq, q.es[p].t, q.es[p].seq) {
			t.Fatalf("op %d: slot %d (%v, %d) orders before its parent %d (%v, %d)", step, i, s.t, s.seq, p, q.es[p].t, q.es[p].seq)
		}
	}
	for i, s := range q.es[len(q.es):cap(q.es)] {
		if s != (entry[ev]{}) {
			t.Fatalf("op %d: vacated slot %d still holds %+v", step, len(q.es)+i, s)
		}
	}
}

// FuzzQueue drives one queue with a byte stream of Push, Pop,
// PopBatch, NextTime and Len calls and checks every result against a
// sorted-slice oracle. Sequence numbers start at a fuzzed offset, so
// the counter can wrap through 2⁶⁴ mid-stream. Each op byte's low two
// bits pick the call and its high six bits the argument:
//
//	0, 1  Push at fuzzTime(arg)
//	2     Pop (Len must be 0 when the oracle is empty)
//	3     arg%4: 0 NextTime and Len, 1 PopBatch(nil),
//	      2 PopBatch(buf[:0]) reusing one buffer, 3 PopBatch onto a
//	      one-event prefix that must survive
func FuzzQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, start uint64, ops []byte) {
		var (
			q     Q[ev]
			model oracle
			n     uint64
			buf   []ev
		)
		sentinel := ev{t: -1, seq: start - 1}
		for step, op := range ops {
			arg := op >> 2
			switch {
			case op&3 < 2:
				e := ev{t: fuzzTime(arg), seq: start + n}
				q.Push(e)
				model.push(e, n)
				n++
			case op&3 == 2:
				if len(model) == 0 {
					if q.Len() != 0 {
						t.Fatalf("op %d: Len = %d on an empty oracle", step, q.Len())
					}
					continue
				}
				if got, want := q.Pop(), model.pop(); got != want {
					t.Fatalf("op %d: Pop = %+v, want %+v", step, got, want)
				}
			case arg%4 == 0:
				if q.Len() != len(model) {
					t.Fatalf("op %d: Len = %d, want %d", step, q.Len(), len(model))
				}
				if len(model) > 0 && q.NextTime() != model[0].e.t {
					t.Fatalf("op %d: NextTime = %v, want %v", step, q.NextTime(), model[0].e.t)
				}
			default:
				var want []ev
				for len(model) > 0 && (len(want) == 0 || model[0].e.t == want[0].t) {
					want = append(want, model.pop())
				}
				var dst []ev
				switch arg % 4 {
				case 2:
					dst = buf[:0]
				case 3:
					dst = []ev{sentinel}
				}
				got := q.PopBatch(dst)
				prefix := len(dst)
				if prefix == 1 && got[0] != sentinel {
					t.Fatalf("op %d: PopBatch overwrote its dst prefix with %+v", step, got[0])
				}
				if len(got)-prefix != len(want) {
					t.Fatalf("op %d: PopBatch appended %d events, want %d", step, len(got)-prefix, len(want))
				}
				for i, w := range want {
					if got[prefix+i] != w {
						t.Fatalf("op %d: PopBatch event %d = %+v, want %+v", step, i, got[prefix+i], w)
					}
				}
				if arg%4 == 2 {
					if len(want) > 0 && len(want) <= cap(buf) && &got[0] != &buf[:1][0] {
						t.Fatalf("op %d: PopBatch reallocated dst[:0] with cap %d for %d events", step, cap(buf), len(want))
					}
					buf = got
				}
			}
			checkHeap(t, &q, step)
		}
	})
}
