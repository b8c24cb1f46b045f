// Package queue provides closed-form results for Markovian queues,
// used as analytic anchors for the packet-level simulator: an M/M/1
// queue with fixed rates is the λ-frozen special case of the adaptive
// system, so the simulator must reproduce these formulas exactly
// before its adaptive results can be trusted.
package queue

import (
	"fmt"
	"math"
)

// MM1 is an M/M/1 queue with Poisson arrivals at rate Lambda and
// exponential service at rate Mu.
type MM1 struct {
	Lambda float64
	Mu     float64
}

// NewMM1 validates and returns an M/M/1 queue description. Stability
// (ρ < 1) is not required at construction; the steady-state accessors
// return +Inf/NaN as appropriate for ρ >= 1.
func NewMM1(lambda, mu float64) (MM1, error) {
	if !(lambda >= 0) || math.IsInf(lambda, 1) {
		return MM1{}, fmt.Errorf("queue: invalid arrival rate %v", lambda)
	}
	if !(mu > 0) || math.IsInf(mu, 1) {
		return MM1{}, fmt.Errorf("queue: invalid service rate %v", mu)
	}
	return MM1{Lambda: lambda, Mu: mu}, nil
}

// Rho returns the utilization ρ = λ/μ.
func (q MM1) Rho() float64 { return q.Lambda / q.Mu }

// Stable reports whether the queue is stable (ρ < 1).
func (q MM1) Stable() bool { return q.Rho() < 1 }

// MeanNumber returns the steady-state mean number in system
// L = ρ/(1−ρ), or +Inf for an unstable queue.
func (q MM1) MeanNumber() float64 {
	rho := q.Rho()
	if rho >= 1 {
		return math.Inf(1)
	}
	return rho / (1 - rho)
}

// VarNumber returns the steady-state variance of the number in
// system, ρ/(1−ρ)², or +Inf for an unstable queue.
func (q MM1) VarNumber() float64 {
	rho := q.Rho()
	if rho >= 1 {
		return math.Inf(1)
	}
	return rho / ((1 - rho) * (1 - rho))
}

// ProbN returns the steady-state probability of exactly n in system,
// (1−ρ)ρⁿ, or NaN for an unstable queue.
func (q MM1) ProbN(n int) float64 {
	rho := q.Rho()
	if rho >= 1 {
		return math.NaN()
	}
	if n < 0 {
		return 0
	}
	return (1 - rho) * math.Pow(rho, float64(n))
}

// TailProb returns P(N > n) = ρ^(n+1), or NaN for an unstable queue.
// This is the buffer-overflow measure experiment E10 uses: the
// probability the queue exceeds a buffer of size n.
func (q MM1) TailProb(n int) float64 {
	rho := q.Rho()
	if rho >= 1 {
		return math.NaN()
	}
	if n < 0 {
		return 1
	}
	return math.Pow(rho, float64(n+1))
}

// MeanSojourn returns the steady-state mean time in system
// W = 1/(μ−λ), or +Inf for an unstable queue.
func (q MM1) MeanSojourn() float64 {
	if !q.Stable() {
		return math.Inf(1)
	}
	return 1 / (q.Mu - q.Lambda)
}
