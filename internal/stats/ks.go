package stats

import (
	"fmt"
	"math"
	"sort"
)

// This file implements the two-sample Kolmogorov-Smirnov comparison
// and batch-means confidence intervals. A KS test asks whether two
// queue samples (say Monte-Carlo and packet-level) agree as whole
// distributions rather than only in their first two moments.

// KSTwoSample returns the two-sample KS statistic
// D = sup |F̂₁(x) − F̂₂(x)| and the asymptotic p-value.
func KSTwoSample(a, b []float64) (d, pValue float64, err error) {
	if len(a) == 0 || len(b) == 0 {
		return 0, 0, fmt.Errorf("stats: empty sample (len %d, %d)", len(a), len(b))
	}
	as := append([]float64(nil), a...)
	bs := append([]float64(nil), b...)
	sort.Float64s(as)
	sort.Float64s(bs)
	na, nb := float64(len(as)), float64(len(bs))
	var i, j int
	for i < len(as) && j < len(bs) {
		x := math.Min(as[i], bs[j])
		for i < len(as) && as[i] <= x {
			i++
		}
		for j < len(bs) && bs[j] <= x {
			j++
		}
		if diff := math.Abs(float64(i)/na - float64(j)/nb); diff > d {
			d = diff
		}
	}
	ne := na * nb / (na + nb)
	return d, ksPValue(math.Sqrt(ne) * d), nil
}

// ksPValue evaluates the asymptotic Kolmogorov survival function
// Q(λ) = 2·Σ_{k≥1} (−1)^{k−1} e^{−2k²λ²}, the limiting p-value of
// √n·D.
func ksPValue(lambda float64) float64 {
	if lambda <= 0 {
		return 1
	}
	if lambda > 10 {
		return 0
	}
	var sum float64
	sign := 1.0
	for k := 1; k <= 100; k++ {
		term := sign * math.Exp(-2*float64(k)*float64(k)*lambda*lambda)
		sum += term
		if math.Abs(term) < 1e-16 {
			break
		}
		sign = -sign
	}
	p := 2 * sum
	switch {
	case p < 0:
		return 0
	case p > 1:
		return 1
	default:
		return p
	}
}

// BatchMeans estimates the mean of a correlated stationary series and
// a confidence half-width by the method of batch means: split into
// nBatches equal batches, treat batch averages as approximately
// independent, and apply the normal approximation with the given z
// quantile (1.96 for 95%).
func BatchMeans(xs []float64, nBatches int, z float64) (mean, halfWidth float64, err error) {
	if nBatches < 2 {
		return 0, 0, fmt.Errorf("stats: need at least 2 batches, got %d", nBatches)
	}
	if len(xs) < 2*nBatches {
		return 0, 0, fmt.Errorf("stats: series of %d too short for %d batches", len(xs), nBatches)
	}
	if !(z > 0) {
		return 0, 0, fmt.Errorf("stats: z quantile must be positive, got %v", z)
	}
	size := len(xs) / nBatches
	means := make([]float64, nBatches)
	for b := 0; b < nBatches; b++ {
		var s float64
		for i := b * size; i < (b+1)*size; i++ {
			s += xs[i]
		}
		means[b] = s / float64(size)
	}
	var m Moments
	for _, v := range means {
		m.Add(v)
	}
	se := m.StdDev() / math.Sqrt(float64(nBatches))
	return m.Mean(), z * se, nil
}
