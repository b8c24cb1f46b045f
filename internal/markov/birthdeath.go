package markov

import (
	"fmt"
	"math"
)

// BirthDeath is a finite birth-death chain on states 0..N-1: state i
// moves up at rate Birth[i] (i < N−1) and down at rate Death[i]
// (i > 0). It is the exact model of a single queue with state-
// dependent Poisson arrivals and exponential service — the finite-
// state ground truth that both the M/M/1 formulas and the Fokker-
// Planck q-marginal approximate.
type BirthDeath struct {
	Birth []float64 // Birth[i]: rate i → i+1; Birth[N-1] ignored
	Death []float64 // Death[i]: rate i → i−1; Death[0] ignored
}

// N returns the number of states.
func (bd *BirthDeath) N() int { return len(bd.Birth) }

// Validate checks internal consistency.
func (bd *BirthDeath) Validate() error {
	if len(bd.Birth) != len(bd.Death) {
		return fmt.Errorf("markov: birth/death length mismatch %d vs %d", len(bd.Birth), len(bd.Death))
	}
	if len(bd.Birth) < 2 {
		return fmt.Errorf("markov: need at least 2 states")
	}
	for i := range bd.Birth {
		if bd.Birth[i] < 0 || math.IsNaN(bd.Birth[i]) || math.IsInf(bd.Birth[i], 1) {
			return fmt.Errorf("markov: invalid birth rate %v at state %d", bd.Birth[i], i)
		}
		if bd.Death[i] < 0 || math.IsNaN(bd.Death[i]) || math.IsInf(bd.Death[i], 1) {
			return fmt.Errorf("markov: invalid death rate %v at state %d", bd.Death[i], i)
		}
	}
	return nil
}

// Chain converts the birth-death chain to a general sparse CTMC.
func (bd *BirthDeath) Chain() (*Chain, error) {
	if err := bd.Validate(); err != nil {
		return nil, err
	}
	n := bd.N()
	c, err := NewChain(n)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		if i < n-1 && bd.Birth[i] > 0 {
			if err := c.AddRate(i, i+1, bd.Birth[i]); err != nil {
				return nil, err
			}
		}
		if i > 0 && bd.Death[i] > 0 {
			if err := c.AddRate(i, i-1, bd.Death[i]); err != nil {
				return nil, err
			}
		}
	}
	return c, nil
}

// Stationary returns the product-form stationary distribution
// πᵢ ∝ Π_{j<i} Birth[j]/Death[j+1]. The chain must be irreducible
// (all Birth[0..n−2] and Death[1..n−1] positive).
func (bd *BirthDeath) Stationary() ([]float64, error) {
	if err := bd.Validate(); err != nil {
		return nil, err
	}
	n := bd.N()
	for i := 0; i < n-1; i++ {
		if !(bd.Birth[i] > 0) {
			return nil, fmt.Errorf("markov: birth rate 0 at state %d breaks irreducibility", i)
		}
		if !(bd.Death[i+1] > 0) {
			return nil, fmt.Errorf("markov: death rate 0 at state %d breaks irreducibility", i+1)
		}
	}
	// Accumulate in log space: the products can overflow for long
	// chains with extreme rate ratios.
	logPi := make([]float64, n)
	maxLog := 0.0
	for i := 1; i < n; i++ {
		logPi[i] = logPi[i-1] + math.Log(bd.Birth[i-1]/bd.Death[i])
		if logPi[i] > maxLog {
			maxLog = logPi[i]
		}
	}
	pi := make([]float64, n)
	var sum float64
	for i := range pi {
		pi[i] = math.Exp(logPi[i] - maxLog)
		sum += pi[i]
	}
	for i := range pi {
		pi[i] /= sum
	}
	return pi, nil
}

// MM1KStationary returns the closed-form stationary law of M/M/1/K —
// an independent check of Stationary() used by tests.
func MM1KStationary(lambda, mu float64, k int) ([]float64, error) {
	switch {
	case !(lambda > 0) || !(mu > 0):
		return nil, fmt.Errorf("markov: rates must be positive, got λ=%v μ=%v", lambda, mu)
	case k < 1:
		return nil, fmt.Errorf("markov: capacity must be at least 1, got %d", k)
	}
	rho := lambda / mu
	p := make([]float64, k+1)
	if math.Abs(rho-1) < 1e-12 {
		for i := range p {
			p[i] = 1 / float64(k+1)
		}
		return p, nil
	}
	norm := (1 - rho) / (1 - math.Pow(rho, float64(k+1)))
	for i := range p {
		p[i] = norm * math.Pow(rho, float64(i))
	}
	return p, nil
}
