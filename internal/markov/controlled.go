package markov

import (
	"fmt"
	"math"

	"fpcc/internal/control"
)

// ControlledQueue is the finite-state CTMC on (queue length, sending
// rate) induced by a rate-control law: the exact Markov analogue of
// the joint density f(t, q, v) of Eq. 14.
//
// States are pairs (q, l) with q ∈ {0..QMax} packets in the system and
// λ_l = RateMin + l·dλ, l ∈ {0..NRate−1} the discretized sending rate.
// Transitions:
//
//   - packet arrival  (q,l) → (q+1,l) at rate λ_l  (blocked at QMax —
//     the finite buffer that a real router has);
//   - packet service  (q,l) → (q−1,l) at rate Mu   (idle at q = 0);
//   - control drift   (q,l) → (q,l±1) at rate |g(q, λ_l)|/dλ in the
//     sign direction of g — the standard jump-process discretization
//     of the deterministic drift dλ/dt = g, exact in the mean as
//     dλ → 0 (it adds rate-diffusion O(|g|·dλ), which is the Markov
//     counterpart of the paper's footnote-2 intrinsic v-variability).
//
// Unlike the Fokker-Planck solver, nothing here is a continuum
// approximation of the queue: the birth-death noise that Eq. 14
// models with the σ²f_qq term arises natively. Comparing the two is
// therefore a direct measurement of the diffusion-approximation error.
type ControlledQueue struct {
	Law     control.Law
	Mu      float64 // service rate
	QMax    int     // buffer size (states 0..QMax)
	RateMin float64 // smallest representable sending rate
	RateMax float64 // largest representable sending rate
	NRate   int     // number of rate grid points (≥ 2)

	chain *Chain
	dRate float64
}

// NewControlledQueue validates the parameters and builds the
// generator.
func NewControlledQueue(law control.Law, mu float64, qMax int, rateMin, rateMax float64, nRate int) (*ControlledQueue, error) {
	switch {
	case law == nil:
		return nil, fmt.Errorf("markov: nil control law")
	case !(mu > 0) || math.IsInf(mu, 1):
		return nil, fmt.Errorf("markov: service rate must be positive, got %v", mu)
	case qMax < 1:
		return nil, fmt.Errorf("markov: queue capacity must be at least 1, got %d", qMax)
	case nRate < 2:
		return nil, fmt.Errorf("markov: need at least 2 rate levels, got %d", nRate)
	case !(rateMin >= 0) || !(rateMax > rateMin):
		return nil, fmt.Errorf("markov: invalid rate range [%v, %v]", rateMin, rateMax)
	}
	cq := &ControlledQueue{
		Law: law, Mu: mu, QMax: qMax,
		RateMin: rateMin, RateMax: rateMax, NRate: nRate,
		dRate: (rateMax - rateMin) / float64(nRate-1),
	}
	if err := cq.build(); err != nil {
		return nil, err
	}
	return cq, nil
}

// NStates returns the total state count (QMax+1)·NRate.
func (cq *ControlledQueue) NStates() int { return (cq.QMax + 1) * cq.NRate }

// Index maps (q, l) to the flat state index.
func (cq *ControlledQueue) Index(q, l int) int { return q*cq.NRate + l }

// Rate returns λ_l for rate level l.
func (cq *ControlledQueue) Rate(l int) float64 { return cq.RateMin + float64(l)*cq.dRate }

// RateLevel returns the nearest rate level to lambda, clamped to the
// grid.
func (cq *ControlledQueue) RateLevel(lambda float64) int {
	l := int(math.Round((lambda - cq.RateMin) / cq.dRate))
	if l < 0 {
		l = 0
	}
	if l >= cq.NRate {
		l = cq.NRate - 1
	}
	return l
}

// build assembles the sparse generator.
func (cq *ControlledQueue) build() error {
	c, err := NewChain(cq.NStates())
	if err != nil {
		return err
	}
	for q := 0; q <= cq.QMax; q++ {
		for l := 0; l < cq.NRate; l++ {
			i := cq.Index(q, l)
			lam := cq.Rate(l)
			if q < cq.QMax && lam > 0 {
				if err := c.AddRate(i, cq.Index(q+1, l), lam); err != nil {
					return err
				}
			}
			if q > 0 {
				if err := c.AddRate(i, cq.Index(q-1, l), cq.Mu); err != nil {
					return err
				}
			}
			g := cq.Law.Drift(float64(q), lam)
			switch {
			case g > 0 && l < cq.NRate-1:
				if err := c.AddRate(i, cq.Index(q, l+1), g/cq.dRate); err != nil {
					return err
				}
			case g < 0 && l > 0:
				if err := c.AddRate(i, cq.Index(q, l-1), -g/cq.dRate); err != nil {
					return err
				}
			}
		}
	}
	cq.chain = c
	return nil
}

// Chain exposes the underlying sparse CTMC.
func (cq *ControlledQueue) Chain() *Chain { return cq.chain }

// InitialPoint returns the distribution concentrated at queue q0 and
// the rate level nearest to lambda0.
func (cq *ControlledQueue) InitialPoint(q0 int, lambda0 float64) ([]float64, error) {
	if q0 < 0 || q0 > cq.QMax {
		return nil, fmt.Errorf("markov: initial queue %d outside [0, %d]", q0, cq.QMax)
	}
	p := make([]float64, cq.NStates())
	p[cq.Index(q0, cq.RateLevel(lambda0))] = 1
	return p, nil
}

// MarginalQ sums the joint law over rate levels, returning the queue-
// length pmf (length QMax+1).
func (cq *ControlledQueue) MarginalQ(p []float64) ([]float64, error) {
	if len(p) != cq.NStates() {
		return nil, fmt.Errorf("markov: joint law has length %d, want %d", len(p), cq.NStates())
	}
	out := make([]float64, cq.QMax+1)
	for q := 0; q <= cq.QMax; q++ {
		var s float64
		for l := 0; l < cq.NRate; l++ {
			s += p[cq.Index(q, l)]
		}
		out[q] = s
	}
	return out, nil
}

// QueueMoments returns E[Q] and Var[Q] under the joint law.
func (cq *ControlledQueue) QueueMoments(p []float64) (mean, variance float64, err error) {
	mq, err := cq.MarginalQ(p)
	if err != nil {
		return 0, 0, err
	}
	vals := make([]float64, len(mq))
	for i := range vals {
		vals[i] = float64(i)
	}
	return MeanVar(mq, vals)
}
