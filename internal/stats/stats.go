// Package stats provides the measurement toolkit shared by every
// experiment in the repository: running moments, histograms, Jain's
// fairness index, oscillation metrics (peak detection, amplitude,
// period), and density distances used to compare the Fokker-Planck
// solution against Monte-Carlo ensembles.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Moments accumulates count, mean, variance and extremes online
// (Welford's algorithm), so a single pass over any stream of
// observations yields numerically stable moments. The zero value is
// ready to use.
type Moments struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (m *Moments) Add(x float64) {
	if m.n == 0 {
		m.min, m.max = x, x
	} else {
		if x < m.min {
			m.min = x
		}
		if x > m.max {
			m.max = x
		}
	}
	m.n++
	d := x - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (x - m.mean)
}

// MomentsOf rebuilds an accumulator from its running state: the
// count n, the Welford mean and sum of squared deviations m2, and the
// extremes. A hot loop that runs Add's recurrence on local variables,
// next to its own work, hands the result back through it; the fields
// of a Moments live in memory, which would put a store and a reload on
// the recurrence's chain of dependent divisions.
func MomentsOf(n int, mean, m2, min, max float64) Moments {
	return Moments{n: n, mean: mean, m2: m2, min: min, max: max}
}

// Merge incorporates the observations summarized by other into m, as
// if every observation fed to other had been fed to m directly
// (Chan-Golub-LeVeque pairwise update of the Welford state). It lets
// shards of a partitioned stream — e.g. the SoA particle chunks of
// internal/meanfield — accumulate moments independently and combine
// them without a second pass over the data.
func (m *Moments) Merge(other Moments) {
	if other.n == 0 {
		return
	}
	if m.n == 0 {
		*m = other
		return
	}
	if other.min < m.min {
		m.min = other.min
	}
	if other.max > m.max {
		m.max = other.max
	}
	na, nb := float64(m.n), float64(other.n)
	n := na + nb
	d := other.mean - m.mean
	m.mean += d * nb / n
	m.m2 += other.m2 + d*d*na*nb/n
	m.n += other.n
}

// Count returns the number of observations.
func (m *Moments) Count() int { return m.n }

// Mean returns the sample mean (NaN when empty).
func (m *Moments) Mean() float64 {
	if m.n == 0 {
		return math.NaN()
	}
	return m.mean
}

// Variance returns the population variance (NaN when empty).
func (m *Moments) Variance() float64 {
	if m.n == 0 {
		return math.NaN()
	}
	return m.m2 / float64(m.n)
}

// StdDev returns the population standard deviation.
func (m *Moments) StdDev() float64 { return math.Sqrt(m.Variance()) }

// Min returns the smallest observation (NaN when empty).
func (m *Moments) Min() float64 {
	if m.n == 0 {
		return math.NaN()
	}
	return m.min
}

// Max returns the largest observation (NaN when empty).
func (m *Moments) Max() float64 {
	if m.n == 0 {
		return math.NaN()
	}
	return m.max
}

// WeightedMoments accumulates a weighted mean and variance, used for
// time-weighted averages (a queue-length sample weighted by how long
// the queue held that value). The zero value is ready to use.
type WeightedMoments struct {
	wsum float64
	mean float64
	m2   float64
}

// Add incorporates observation x with non-negative weight w; zero or
// negative weights are ignored.
func (m *WeightedMoments) Add(x, w float64) {
	if w <= 0 {
		return
	}
	m.wsum += w
	d := x - m.mean
	m.mean += d * w / m.wsum
	m.m2 += w * d * (x - m.mean)
}

// TotalWeight returns the accumulated weight.
func (m *WeightedMoments) TotalWeight() float64 { return m.wsum }

// Mean returns the weighted mean (NaN when no weight accumulated).
func (m *WeightedMoments) Mean() float64 {
	if m.wsum == 0 {
		return math.NaN()
	}
	return m.mean
}

// Variance returns the weighted population variance (NaN when empty).
func (m *WeightedMoments) Variance() float64 {
	if m.wsum == 0 {
		return math.NaN()
	}
	return m.m2 / m.wsum
}

// StdDev returns the weighted standard deviation.
func (m *WeightedMoments) StdDev() float64 { return math.Sqrt(m.Variance()) }

// JainIndex returns Jain's fairness index of the allocations x:
// (Σx)² / (n·Σx²), which is 1 for perfectly equal allocations and
// 1/n when a single user takes everything. It returns NaN for empty
// input and for all-zero allocations.
func JainIndex(x []float64) float64 {
	if len(x) == 0 {
		return math.NaN()
	}
	var sum, sumSq float64
	for _, v := range x {
		sum += v
		sumSq += v * v
	}
	if sumSq == 0 {
		return math.NaN()
	}
	return sum * sum / (float64(len(x)) * sumSq)
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It sorts a copy. It panics
// if q is outside [0, 1] and returns NaN for empty input.
func Quantile(xs []float64, q float64) float64 {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v outside [0, 1]", q))
	}
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}
