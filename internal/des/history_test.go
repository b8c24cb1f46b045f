package des

import (
	"math"
	"testing"

	"fpcc/internal/rng"
	"fpcc/internal/window"
)

// history is the queue history Sim and the netsim nodes keep: a
// delay window of QueueMark records.
type history = window.Window[QueueMark]

// queueAt and signalAt are the engines' two delayed reads of h.
func queueAt(h *history, t float64) float64  { return float64(h.Latest(t).Q) }
func signalAt(h *history, t float64) float64 { return h.Latest(t).Sig }

// shadowHistory is the brute-force reference model the property tests
// hold the queue history to: every record is kept forever (no pruning), and
// lookups scan linearly, resolving duplicated timestamps to the LAST
// record at or before the query time — a burst of same-time events
// must read back as the state after the burst settled.
type shadowHistory struct {
	t   []float64
	q   []int
	sig []float64
}

func (s *shadowHistory) record(t float64, q int, sig float64) {
	s.t = append(s.t, t)
	s.q = append(s.q, q)
	s.sig = append(s.sig, sig)
}

// idxAt returns the index of the last record at or before t (-1 when t
// precedes every record).
func (s *shadowHistory) idxAt(t float64) int {
	k := -1
	for i, ti := range s.t {
		if ti <= t {
			k = i
		}
	}
	return k
}

func (s *shadowHistory) queueAt(t float64) float64 {
	if k := s.idxAt(t); k >= 0 {
		return float64(s.q[k])
	}
	return 0
}

func (s *shadowHistory) signalAt(t float64) float64 {
	if k := s.idxAt(t); k >= 0 {
		return s.sig[k]
	}
	return 0
}

// TestQueueAtDuplicateTimestamps is the regression test for the
// same-time-burst flaw: several records sharing one timestamp (a burst
// of arrivals processed at the same event time) must read back as the
// last record of the burst, not the first.
func TestQueueAtDuplicateTimestamps(t *testing.T) {
	h := &history{}
	h.Record(0, QueueMark{0, 0.0}, 0)
	// A burst of three same-time changes at t=5.
	h.Record(5, QueueMark{1, 0.1}, 0)
	h.Record(5, QueueMark{2, 0.2}, 0)
	h.Record(5, QueueMark{3, 0.3}, 0)
	h.Record(9, QueueMark{7, 0.9}, 0)

	if got := queueAt(h, 5); got != 3 {
		t.Errorf("QueueAt(5) = %v, want 3 (last record of the burst)", got)
	}
	if got := signalAt(h, 5); got != 0.3 {
		t.Errorf("SignalAt(5) = %v, want 0.3 (last record of the burst)", got)
	}
	// Between the burst and the next change the burst's final state
	// still holds.
	if got := queueAt(h, 7); got != 3 {
		t.Errorf("QueueAt(7) = %v, want 3", got)
	}
	// Strictly before the burst the pre-burst state holds.
	if got := queueAt(h, 4.5); got != 0 {
		t.Errorf("QueueAt(4.5) = %v, want 0", got)
	}
	if got := signalAt(h, 4.5); got != 0 {
		t.Errorf("SignalAt(4.5) = %v, want 0", got)
	}
	// At and after the last record.
	if got := queueAt(h, 9); got != 7 {
		t.Errorf("QueueAt(9) = %v, want 7", got)
	}
	if got := signalAt(h, 100); got != 0.9 {
		t.Errorf("SignalAt(100) = %v, want 0.9", got)
	}
	// Before every record.
	if got := queueAt(h, -1); got != 0 {
		t.Errorf("QueueAt(-1) = %v, want 0", got)
	}
	// TandemSim's hops keep a signal-less window of queue lengths,
	// which reads 0 before its first record.
	var plain window.Window[int]
	if got := plain.Latest(1); got != 0 {
		t.Errorf("Latest on an empty queue-length window = %v, want 0", got)
	}
	plain.Record(1, 2, 0)
	if got := plain.Latest(1); got != 2 {
		t.Errorf("Latest(1) on a queue-length window = %v, want 2", got)
	}
}

// TestHistoryPropertyVsBruteForce drives the queue history and the
// brute-force shadow model through randomized histories — duplicated
// timestamps, bursts, and enough records to trigger pruning — and
// requires QueueAt and SignalAt to agree with the shadow at
// query times inside the lookback window.
func TestHistoryPropertyVsBruteForce(t *testing.T) {
	const lookback = 30.0
	for trial := 0; trial < 20; trial++ {
		r := rng.New(uint64(1000 + trial))
		h := &history{}
		var shadow shadowHistory
		now := 0.0
		q := 0
		record := func() {
			sig := float64(q) + r.Float64()
			h.Record(now, QueueMark{q, sig}, now-lookback)
			shadow.record(now, q, sig)
		}
		record()
		// Every trial fills its window many times over, so each
		// prunes repeatedly.
		n := 600 + trial*500
		for i := 0; i < n; i++ {
			// One burst in four shares the previous timestamp exactly.
			if r.Float64() > 0.25 {
				now += r.Exp(8)
			}
			q += r.Intn(5) - 2
			if q < 0 {
				q = 0
			}
			record()
		}

		// Query only inside the guaranteed-resolvable window: pruning
		// keeps one sample at or before now-lookback.
		lo := math.Max(now-lookback, 0)
		for i := 0; i < 300; i++ {
			qt := lo + r.Float64()*(now-lo)
			if i%10 == 0 {
				qt = shadow.t[shadow.idxAt(qt)] // hit a record time exactly
			}
			if got, want := queueAt(h, qt), shadow.queueAt(qt); got != want {
				t.Fatalf("trial %d: QueueAt(%v) = %v, want %v", trial, qt, got, want)
			}
			if got, want := signalAt(h, qt), shadow.signalAt(qt); got != want {
				t.Fatalf("trial %d: SignalAt(%v) = %v, want %v", trial, qt, got, want)
			}
		}
	}
}

// TestRecordPruningKeepsLookbackResolvable asserts the pruning
// invariant directly: after the history fills and prunes, lookups
// just inside the lookback cut still resolve (one sample at or before
// the cut survives), and each record's queue and signal stay together
// across prunes.
func TestRecordPruningKeepsLookbackResolvable(t *testing.T) {
	const lookback = 5.0
	h := &history{}
	var shadow shadowHistory
	dt := 0.01
	now := 0.0
	// 10000 records at 0.01s spacing: the window fills repeatedly,
	// discarding everything older than the cut (how far its capacity
	// grows is held by window.TestCapacitySettlesNearTheWindow).
	for i := 0; i < 10000; i++ {
		now = float64(i) * dt
		h.Record(now, QueueMark{i, float64(i) / 2}, now-lookback)
		shadow.record(now, i, float64(i)/2)
	}
	// Every lookup inside [now-lookback, now] must match the unpruned
	// shadow — including the edge just inside the cut.
	for _, qt := range []float64{now - lookback, now - lookback + 1e-9, now - 2.5, now - dt/2, now} {
		if got, want := queueAt(h, qt), shadow.queueAt(qt); got != want {
			t.Errorf("after pruning: QueueAt(%v) = %v, want %v", qt, got, want)
		}
		if got, want := signalAt(h, qt), shadow.signalAt(qt); got != want {
			t.Errorf("after pruning: SignalAt(%v) = %v, want %v", qt, got, want)
		}
	}
}
