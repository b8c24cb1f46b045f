package meanfield

import "fpcc/internal/window"

// History is the continuous queue-length record the fluid-limit
// engines use for delayed observation: samples are appended once per
// step and a controller observing with delay τ reads the linear
// interpolation at t−τ. The queue of a fluid-limit model is
// continuous, unlike the packet engines' integer queues — hence
// interpolation rather than a step lookup. It serves the per-node
// queue histories of the kinetic Engine and the shared bottleneck of
// Particles, and keeps only the delay window (see package window).
type History struct {
	w window.Window[float64]
}

// Record appends the sample (t, q). cut is the oldest time a later At
// will ask for; samples before the last one before it are dropped
// when the window next fills.
func (h *History) Record(t, q, cut float64) { h.w.Record(t, q, cut) }

// TailTimes returns the timestamps of the most recent (up to) two
// samples, oldest first — what the per-step history-monotonicity
// invariant inspects.
func (h *History) TailTimes() []float64 { return h.w.TailTimes() }

// At returns the queue length at time t, linearly interpolated
// between samples and clamped to the recorded range (times before the
// first sample return the initial state).
func (h *History) At(t float64) float64 { return window.Interp(&h.w, t) }
