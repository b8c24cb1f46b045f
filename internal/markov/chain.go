// Package markov provides exact transient and stationary analysis of
// finite continuous-time Markov chains (CTMCs) by uniformization.
//
// The package exists as an independent ground truth for the paper's
// Fokker-Planck approximation (Eq. 14): the packet-level system —
// Poisson arrivals at a controller-adjusted rate into an exponential
// server — is a Markov chain, and for a *discretized* controller state
// it is a finite one whose transient law can be computed to any
// accuracy. Comparing the CTMC marginals with the Fokker-Planck
// moments quantifies how much of the gap between the PDE and the
// packet simulator is diffusion-approximation error rather than
// Monte-Carlo noise.
//
// Three layers:
//
//   - Chain: a general sparse CTMC with the uniformization transient
//     p(t) = Σₖ e^{−Λt}(Λt)ᵏ/k! · p(0)·Pᵏ, P = I + Q/Λ.
//   - BirthDeath: one-dimensional birth-death chains (M/M/1/K and
//     state-dependent variants) with product-form stationary laws.
//   - ControlledQueue: the two-dimensional chain on (queue length,
//     discretized sending rate) induced by a rate-control law g — the
//     exact finite-state analogue of the joint density f(t, q, v).
package markov

import (
	"fmt"
	"math"
)

// rateEntry is one off-diagonal transition i → j.
type rateEntry struct {
	to   int
	rate float64
}

// Chain is a finite-state CTMC held as a sparse list of transition
// rates. States are indexed 0..n-1. The zero value is not usable;
// construct with NewChain.
type Chain struct {
	n    int
	rows [][]rateEntry // rows[i] = transitions out of state i
	out  []float64     // total outflow rate per state
}

// NewChain returns an empty chain on n states.
func NewChain(n int) (*Chain, error) {
	if n <= 0 {
		return nil, fmt.Errorf("markov: chain needs at least one state, got %d", n)
	}
	return &Chain{n: n, rows: make([][]rateEntry, n), out: make([]float64, n)}, nil
}

// AddRate adds a transition i → j with the given rate. Rates
// accumulate if called twice for the same pair. Self-loops and
// non-positive rates are rejected.
func (c *Chain) AddRate(i, j int, rate float64) error {
	switch {
	case i < 0 || i >= c.n || j < 0 || j >= c.n:
		return fmt.Errorf("markov: transition %d→%d out of range [0,%d)", i, j, c.n)
	case i == j:
		return fmt.Errorf("markov: self-loop on state %d", i)
	case !(rate > 0) || math.IsInf(rate, 1) || math.IsNaN(rate):
		return fmt.Errorf("markov: transition %d→%d has invalid rate %v", i, j, rate)
	}
	c.rows[i] = append(c.rows[i], rateEntry{to: j, rate: rate})
	c.out[i] += rate
	return nil
}

// MaxOutflow returns the largest total outflow rate over all states —
// the uniformization constant Λ must be at least this.
func (c *Chain) MaxOutflow() float64 {
	var m float64
	for _, o := range c.out {
		if o > m {
			m = o
		}
	}
	return m
}

// stepP advances a distribution one step of the uniformized DTMC
// P = I + Q/Λ: dst = src · P. dst and src must be distinct slices of
// length n.
func (c *Chain) stepP(dst, src []float64, lambda float64) {
	for j := range dst {
		dst[j] = 0
	}
	for i, p := range src {
		if p == 0 {
			continue
		}
		dst[i] += p * (1 - c.out[i]/lambda)
		for _, e := range c.rows[i] {
			dst[e.to] += p * e.rate / lambda
		}
	}
}

// maxMatvecs caps the number of uniformization steps; beyond this the
// transient is indistinguishable from stationary at any reasonable
// tolerance, so a caller after the long-run law should solve for the
// stationary distribution directly (BirthDeath.Stationary for a
// birth-death chain).
const maxMatvecs = 2_000_000

// Transient returns the distribution at time t ≥ 0 starting from p0,
// computed by uniformization with truncation error below tol in total
// variation. p0 must be a probability vector over the chain's states.
func (c *Chain) Transient(p0 []float64, t, tol float64) ([]float64, error) {
	if err := checkDist(p0, c.n); err != nil {
		return nil, err
	}
	switch {
	case math.IsNaN(t) || t < 0:
		return nil, fmt.Errorf("markov: negative time %v", t)
	case !(tol > 0) || tol >= 1:
		return nil, fmt.Errorf("markov: tolerance must be in (0,1), got %v", tol)
	}
	out := make([]float64, c.n)
	copy(out, p0)
	if t == 0 || c.MaxOutflow() == 0 {
		return out, nil
	}
	// Λ slightly above the max outflow keeps 1 − out/Λ strictly
	// positive, which makes P aperiodic and the scheme more robust.
	lambda := c.MaxOutflow() * 1.0000001
	lt := lambda * t
	kMax, err := poissonTruncation(lt, tol)
	if err != nil {
		return nil, err
	}
	if kMax > maxMatvecs {
		return nil, fmt.Errorf("markov: uniformization needs %d > %d matrix-vector products (Λt = %.3g); solve for the stationary law or use a coarser model", kMax, maxMatvecs, lt)
	}
	// Poisson weights by the stable central recurrence: compute
	// log w_k and exponentiate, so large Λt cannot underflow the
	// whole sum.
	acc := make([]float64, c.n)
	cur := make([]float64, c.n)
	next := make([]float64, c.n)
	copy(cur, p0)
	logW := -lt // log w_0
	for k := 0; ; k++ {
		if w := math.Exp(logW); w > 0 {
			for i := range acc {
				acc[i] += w * cur[i]
			}
		}
		if k == kMax {
			break
		}
		c.stepP(next, cur, lambda)
		cur, next = next, cur
		logW += math.Log(lt / float64(k+1))
	}
	// The truncated sum deliberately misses ≤ tol of the Poisson
	// mass; renormalize so the result is exactly a distribution.
	var sum float64
	for _, p := range acc {
		sum += p
	}
	if !(sum > 0) {
		return nil, fmt.Errorf("markov: uniformization lost all mass (Λt = %.3g); increase tol", lt)
	}
	for i := range acc {
		acc[i] /= sum
	}
	return acc, nil
}

// TransientSeries evaluates the transient distribution at each of the
// strictly increasing times ts, reusing the previous point as the
// start of the next interval (the Markov property makes this exact).
func (c *Chain) TransientSeries(p0 []float64, ts []float64, tol float64) ([][]float64, error) {
	if len(ts) == 0 {
		return nil, fmt.Errorf("markov: no time points")
	}
	prevT := 0.0
	prev := p0
	out := make([][]float64, 0, len(ts))
	for i, t := range ts {
		if t < prevT {
			return nil, fmt.Errorf("markov: time points must be non-decreasing from 0; ts[%d] = %v after %v", i, t, prevT)
		}
		p, err := c.Transient(prev, t-prevT, tol)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
		prev, prevT = p, t
	}
	return out, nil
}

// poissonTruncation returns the smallest K with
// P[Poisson(m) > K] ≤ tol, by the stable central recurrence.
func poissonTruncation(m, tol float64) (int, error) {
	if m <= 0 {
		return 0, nil
	}
	if m > 1e12 {
		return 0, fmt.Errorf("markov: Λt = %.3g too large to uniformize", m)
	}
	// Start from a Chernoff-style upper bound and refine by summing
	// the pmf in log space from the mode outward.
	mode := math.Floor(m)
	logPMode := -m + mode*math.Log(m) - lgamma(mode+1)
	// Sum right tail from the mode until the remaining mass must be
	// below tol. Also accumulate the left side once for the total.
	var mass float64
	logP := logPMode
	k := mode
	for {
		mass += math.Exp(logP)
		// Left-of-mode mass: add it lazily by symmetry of need — we
		// only need "cumulative ≥ 1 − tol", so account for it exactly:
		if k == mode {
			lp := logPMode
			for j := mode; j > 0; j-- {
				lp += math.Log(float64(j) / m)
				mass += math.Exp(lp)
				if lp < math.Log(tol)-40 {
					break
				}
			}
		}
		if mass >= 1-tol {
			return int(k), nil
		}
		k++
		logP += math.Log(m / k)
		if k > m+40*math.Sqrt(m)+100 {
			// Numerical safety net: the tail is certainly below tol
			// here for any tol ≥ 1e-14.
			return int(k), nil
		}
	}
}

// lgamma wraps math.Lgamma discarding the sign (arguments here are
// positive).
func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// checkDist validates a probability vector.
func checkDist(p []float64, n int) error {
	if len(p) != n {
		return fmt.Errorf("markov: distribution has length %d, want %d", len(p), n)
	}
	var sum float64
	for i, v := range p {
		if v < 0 || math.IsNaN(v) {
			return fmt.Errorf("markov: p[%d] = %v is not a probability", i, v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("markov: distribution sums to %v, want 1", sum)
	}
	return nil
}

// MeanVar returns the mean and variance of a distribution over states
// mapped through the value function vals (vals[i] is the numeric value
// of state i).
func MeanVar(p, vals []float64) (mean, variance float64, err error) {
	if len(p) != len(vals) {
		return 0, 0, fmt.Errorf("markov: %d probabilities but %d values", len(p), len(vals))
	}
	for i, pi := range p {
		mean += pi * vals[i]
	}
	for i, pi := range p {
		d := vals[i] - mean
		variance += pi * d * d
	}
	return mean, variance, nil
}
