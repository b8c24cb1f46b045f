package des

import "sort"

// QueueHistory is the timestamped queue-length record shared by the
// delayed-feedback simulators (the single-bottleneck Sim, TandemSim's
// per-hop histories and the per-node histories of internal/netsim):
// every queue change is appended with its time — and, when a gateway
// owns the congestion signal, the gateway's wire signal — so a
// controller observing with delay τ reads the state exactly as it
// stood at t−τ, not an approximation of it.
//
// The history is pruned lazily: once it exceeds a size threshold,
// samples older than the caller-supplied lookback cut are discarded,
// always keeping one sample at or before the cut so lookups just
// inside the window still resolve.
type QueueHistory struct {
	t       []float64
	q       []int
	sig     []float64 // parallel gateway signal; nil when withSig is false
	withSig bool
}

// NewQueueHistory returns an empty history; withSig enables the
// parallel gateway-signal track. Callers record the initial (t=0)
// state themselves.
func NewQueueHistory(withSig bool) QueueHistory {
	return QueueHistory{withSig: withSig}
}

// Record appends the queue length q (and gateway signal sig, ignored
// without a signal track) at time t, pruning samples older than cut
// once the history has grown past the size threshold.
func (h *QueueHistory) Record(t float64, q int, sig, cut float64) {
	h.t = append(h.t, t)
	h.q = append(h.q, q)
	if h.withSig {
		h.sig = append(h.sig, sig)
	}
	if len(h.t) > 4096 {
		k := sort.SearchFloat64s(h.t, cut)
		if k > 1 {
			k-- // keep one sample at or before the cut
			h.t = append(h.t[:0], h.t[k:]...)
			h.q = append(h.q[:0], h.q[k:]...)
			if h.sig != nil {
				h.sig = append(h.sig[:0], h.sig[k:]...)
			}
		}
	}
}

// TailTimes returns the timestamps of the most recent (up to) two
// records, oldest first — what the per-event history-monotonicity
// invariant inspects (each change appends once, so checking the tail
// at every event covers the whole series).
func (h *QueueHistory) TailTimes() []float64 {
	if n := len(h.t); n > 2 {
		return h.t[n-2:]
	}
	return h.t
}

// idxAt returns the index of the last record at or before t, or -1
// when t precedes every record. Duplicate timestamps — a burst of
// same-time events — resolve to the LAST record of the burst: the
// state at t is the state after everything that happened at t.
func (h *QueueHistory) idxAt(t float64) int {
	return sort.Search(len(h.t), func(i int) bool { return h.t[i] > t }) - 1
}

// QueueAt returns the queue length as it was at time t (the last
// recorded change at or before t; 0 before the first record).
func (h *QueueHistory) QueueAt(t float64) float64 {
	if k := h.idxAt(t); k >= 0 {
		return float64(h.q[k])
	}
	return 0
}

// SignalAt returns the gateway signal as it was at time t (0 before
// the first record, and always 0 on a history built without a signal
// track).
func (h *QueueHistory) SignalAt(t float64) float64 {
	if k := h.idxAt(t); k >= 0 && h.sig != nil {
		return h.sig[k]
	}
	return 0
}
