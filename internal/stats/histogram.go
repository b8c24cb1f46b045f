package stats

import (
	"fmt"
	"math"
)

// Histogram1D is a fixed-range histogram over [Min, Max) with uniform
// bins. Out-of-range observations are counted in the under/overflow
// tallies, never silently dropped.
type Histogram1D struct {
	Min, Max  float64
	Counts    []int
	Underflow int
	Overflow  int
	total     int
}

// NewHistogram1D builds a histogram. It returns an error if bins < 1
// or the range is empty or not finite.
func NewHistogram1D(min, max float64, bins int) (*Histogram1D, error) {
	switch {
	case bins < 1:
		return nil, fmt.Errorf("stats: need at least one bin, got %d", bins)
	case !(max > min):
		return nil, fmt.Errorf("stats: empty histogram range [%v, %v]", min, max)
	case math.IsInf(min, 0) || math.IsInf(max, 0) || math.IsNaN(min) || math.IsNaN(max):
		return nil, fmt.Errorf("stats: non-finite histogram range [%v, %v]", min, max)
	}
	return &Histogram1D{Min: min, Max: max, Counts: make([]int, bins)}, nil
}

// BinWidth returns the width of each bin.
func (h *Histogram1D) BinWidth() float64 {
	return (h.Max - h.Min) / float64(len(h.Counts))
}

// Add records one observation.
func (h *Histogram1D) Add(x float64) {
	h.total++
	switch {
	case x < h.Min:
		h.Underflow++
	case x >= h.Max:
		h.Overflow++
	default:
		i := int((x - h.Min) / h.BinWidth())
		if i >= len(h.Counts) { // floating-point edge at x just below Max
			i = len(h.Counts) - 1
		}
		h.Counts[i]++
	}
}

// Total returns the number of observations including out-of-range.
func (h *Histogram1D) Total() int { return h.total }

// BinCenter returns the center coordinate of bin i.
func (h *Histogram1D) BinCenter(i int) float64 {
	return h.Min + (float64(i)+0.5)*h.BinWidth()
}

// Density returns the normalized density estimate: Counts scaled so
// the histogram integrates to the in-range probability mass
// (in-range count / total). An empty histogram returns all zeros.
func (h *Histogram1D) Density() []float64 {
	d := make([]float64, len(h.Counts))
	if h.total == 0 {
		return d
	}
	w := h.BinWidth()
	for i, c := range h.Counts {
		d[i] = float64(c) / (float64(h.total) * w)
	}
	return d
}

// Mean returns the histogram mean estimated from bin centers (NaN when
// no in-range mass).
func (h *Histogram1D) Mean() float64 {
	var sum float64
	var n int
	for i, c := range h.Counts {
		sum += float64(c) * h.BinCenter(i)
		n += c
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// L1DensityDistance integrates |p − q| over the common support of two
// densities sampled on the same uniform grid with cell size cell.
// Identical densities give 0; disjoint unit-mass densities give 2.
func L1DensityDistance(p, q []float64, cell float64) (float64, error) {
	if len(p) != len(q) {
		return 0, fmt.Errorf("stats: density length mismatch %d vs %d", len(p), len(q))
	}
	if !(cell > 0) {
		return 0, fmt.Errorf("stats: non-positive cell size %v", cell)
	}
	var sum float64
	for i := range p {
		sum += math.Abs(p[i] - q[i])
	}
	return sum * cell, nil
}
