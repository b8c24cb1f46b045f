package meanfield

import "sort"

// History is the continuous queue-length record the fluid-limit
// engines use for delayed observation: samples are appended once per
// step and a controller observing with delay τ reads the linear
// interpolation at t−τ. The queue of a fluid-limit model is
// continuous, unlike the integer-valued des.QueueHistory — hence
// interpolation rather than piecewise-constant lookup. It serves the
// per-node queue histories of the kinetic Engine and the shared
// bottleneck of Particles.
type History struct {
	t, q []float64
}

// Record appends the sample (t, q), pruning samples strictly older
// than cut once the history has grown large (one sample at or before
// the cut is kept so lookups just inside the window interpolate).
func (h *History) Record(t, q, cut float64) {
	h.t = append(h.t, t)
	h.q = append(h.q, q)
	if len(h.t) > 8192 {
		k := sort.SearchFloat64s(h.t, cut)
		if k > 1 {
			k-- // keep one sample at or before the cut
			h.t = append(h.t[:0], h.t[k:]...)
			h.q = append(h.q[:0], h.q[k:]...)
		}
	}
}

// TailTimes returns the timestamps of the most recent (up to) two
// samples, oldest first — what the per-step history-monotonicity
// invariant inspects (each step appends once, so checking the tail
// every step covers the whole series).
func (h *History) TailTimes() []float64 {
	if n := len(h.t); n > 2 {
		return h.t[n-2:]
	}
	return h.t
}

// At returns the queue length at time t, linearly interpolated
// between samples and clamped to the recorded range (times before the
// first sample return the initial state).
func (h *History) At(t float64) float64 {
	n := len(h.t)
	if n == 0 {
		return 0
	}
	if t <= h.t[0] {
		return h.q[0]
	}
	if t >= h.t[n-1] {
		return h.q[n-1]
	}
	k := sort.SearchFloat64s(h.t, t)
	t0, t1 := h.t[k-1], h.t[k]
	if t1 == t0 {
		return h.q[k]
	}
	frac := (t - t0) / (t1 - t0)
	return h.q[k-1] + frac*(h.q[k]-h.q[k-1])
}
