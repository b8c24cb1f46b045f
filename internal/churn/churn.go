// Package churn opens the simulated system: instead of a fixed,
// closed population of sources, flows are born by a Poisson arrival
// process and die after a random session lifetime. The package holds
// the vocabulary every engine family shares — lifetime distributions,
// the open-system class descriptor, and the deterministic blaster
// envelope — while each engine keeps its own mechanics:
//
//   - the packet engines (internal/netsim) draw exact per-session
//     lifetimes with Lifetime.Sample and emit per-flow birth/death
//     events;
//   - the kinetic engines (internal/meanfield, internal/netmf) need a
//     Markovian representation of the same distribution to keep the
//     density evolution local in time, so every Lifetime also exposes
//     Phases(): a hyperexponential mixture a newborn is routed into,
//     each phase dying at a constant hazard. For the exponential
//     distribution the representation is exact (one phase); for the
//     heavy-tailed Pareto it is a Feldmann–Whitt-style tail fit with
//     the mean preserved exactly, so Little's-law population targets
//     agree across engine families to rounding.
//
// The mean-field limit of the open M/G/∞-style population is a
// birth–death source term on each class's rate density: newborn mass
// is deposited at a configurable λ₀ profile at the normalized rate
// Arrival/N, and each phase's mass decays at its hazard. The engines
// keep a cumulative born/died ledger so the transport mass budget
// stays auditable (∫f = initial + clipped + born − died).
package churn

import (
	"fmt"
	"math"

	"fpcc/internal/rng"
)

// Phase is one exponential stage of a hyperexponential lifetime
// representation: a newborn flow enters the phase with probability
// Weight and departs at constant hazard Rate.
type Phase struct {
	Weight float64
	Rate   float64
}

// Lifetime is a session-lifetime distribution, usable by both engine
// families: the packet engines draw exact samples, the kinetic
// engines use the phase representation.
type Lifetime interface {
	// Name is a short identifier used in reports ("exp", "pareto").
	Name() string
	// Mean returns the expected lifetime E[L] (finite by
	// construction; open systems need Little's law to close).
	Mean() float64
	// Sample draws one lifetime from the exact distribution.
	Sample(r *rng.Source) float64
	// Phases returns the hyperexponential representation the density
	// engines evolve: weights sum to 1, rates are positive, and the
	// mixture mean Σ wᵢ/rᵢ equals Mean() exactly. The tail may be
	// approximate (it is for Pareto); the mean never is.
	Phases() []Phase
}

// Exponential is the memoryless lifetime: the one distribution whose
// phase representation is exact, which makes it the reference for the
// packet-vs-density cross-check tests.
type Exponential struct {
	mean float64
}

// NewExponential validates and returns an exponential lifetime with
// the given mean.
func NewExponential(mean float64) (Exponential, error) {
	if !(mean > 0) || math.IsInf(mean, 1) {
		return Exponential{}, fmt.Errorf("churn: exponential mean lifetime must be positive and finite, got %v", mean)
	}
	return Exponential{mean: mean}, nil
}

// Name implements Lifetime.
func (e Exponential) Name() string { return "exp" }

// Mean implements Lifetime.
func (e Exponential) Mean() float64 { return e.mean }

// Sample implements Lifetime.
func (e Exponential) Sample(r *rng.Source) float64 { return r.Exp(1 / e.mean) }

// Phases implements Lifetime: a single phase at hazard 1/mean.
func (e Exponential) Phases() []Phase {
	return []Phase{{Weight: 1, Rate: 1 / e.mean}}
}

// Pareto is the heavy-tailed lifetime of measured flow-size and
// session-duration distributions: ccdf (xm/x)^α for x ≥ xm. The mean
// α·xm/(α−1) is finite for α > 1. Phases() returns a hyperexponential
// fitted to the tail (computed once at construction); Sample draws
// from the exact distribution.
//
// The phase fit targets the heavy-tailed regime minParetoShape ≤ α ≤ 2
// (cv² ≥ 1), where it tracks the true ccdf within a factor of 3 over
// the top three decades of the tail. For α > 2 the Pareto is LESS
// variable than an exponential and no exponential mixture can match
// its shape; the fit then degrades gracefully toward a single
// exponential, still preserving the mean exactly.
type Pareto struct {
	alpha, xm float64
	phases    []Phase
}

// minParetoShape is the smallest shape NewPareto accepts. As α falls
// toward 1 the mean moves into the tail beyond the fit's deepest
// anchor (a share 10^(−3(α−1)/α) of it lies past the 10⁻³ quantile),
// the closing phase must carry it, and the model ccdf leaves the
// factor-of-3 band: at α = 1.1 it is 3.7 times the true tail at the
// 0.03 level. From 1.2 up the fit stays within a factor of 2.6.
const minParetoShape = 1.2

// NewPareto validates and returns a Pareto lifetime with shape alpha
// (≥ minParetoShape, finite) and scale xm (the minimum lifetime, in
// [1e-300, 1e300], so that the mean and every phase rate of the fit
// are normal float64 numbers).
func NewPareto(alpha, xm float64) (Pareto, error) {
	switch {
	case !(alpha >= minParetoShape) || math.IsInf(alpha, 1):
		return Pareto{}, fmt.Errorf("churn: Pareto shape must be at least %v and finite, got %v", minParetoShape, alpha)
	case !(xm >= 1e-300 && xm <= 1e300):
		return Pareto{}, fmt.Errorf("churn: Pareto scale must be in [1e-300, 1e300], got %v", xm)
	}
	return Pareto{alpha: alpha, xm: xm, phases: fitPareto(alpha, xm)}, nil
}

// Name implements Lifetime.
func (p Pareto) Name() string { return "pareto" }

// Mean implements Lifetime.
func (p Pareto) Mean() float64 { return p.alpha * p.xm / (p.alpha - 1) }

// Sample implements Lifetime by inversion: xm·U^(−1/α) with
// U ∈ (0, 1].
func (p Pareto) Sample(r *rng.Source) float64 {
	u := 1 - r.Float64() // (0, 1]: avoids the U=0 pole
	return p.xm * math.Pow(u, -1/p.alpha)
}

// Phases implements Lifetime. The slice is shared and must not be
// mutated.
func (p Pareto) Phases() []Phase { return p.phases }

// fitPareto builds the hyperexponential tail fit, Feldmann–Whitt
// style: working from the largest time scale inward, each anchor
// contributes one phase matched to the residual ccdf at two points
// (x and q·x), and a closing phase absorbs the remaining probability
// with its rate chosen so the mixture mean equals the Pareto mean
// exactly. The fit is fully deterministic.
func fitPareto(alpha, xm float64) []Phase {
	mean := alpha * xm / (alpha - 1)
	ccdf := func(x float64) float64 {
		if x <= xm {
			return 1
		}
		return math.Pow(xm/x, alpha)
	}
	// Anchors at fixed ccdf levels (tail quantiles), deepest first, so
	// the fit spans the top three decades of the tail whatever the
	// shape: phase k is matched to the residual ccdf at the points
	// where the true tail crosses 10^−k and 10^−(k−1/2).
	var phases []Phase
	resid := func(x float64) float64 {
		g := ccdf(x)
		for _, p := range phases {
			g -= p.Weight * math.Exp(-p.Rate*x)
		}
		return g
	}
	var sumW, sumMean float64
	for _, k := range [...]float64{3, 2, 1} {
		x1 := xm * math.Pow(10, k/alpha)       // ccdf(x1) = 10^−k
		x2 := xm * math.Pow(10, (k-0.5)/alpha) // ccdf(x2) = 10^−(k−1/2)
		g1, g2 := resid(x1), resid(x2)
		if !(g1 > 1e-12) || !(g2 > g1) {
			continue // tail already captured at this scale
		}
		r := math.Log(g2/g1) / (x1 - x2)
		w := g1 * math.Exp(r*x1)
		if !(r > 0) || !(w > 0) || sumW+w >= 1 {
			continue
		}
		phases = append(phases, Phase{Weight: w, Rate: r})
		sumW += w
		sumMean += w / r
	}
	// Closing phase: remaining weight at the rate that makes the
	// mixture mean exact. If the tail phases already spent the mean
	// budget (possible only for degenerate shapes), collapse to the
	// single-phase exponential of the same mean.
	wK := 1 - sumW
	mK := mean - sumMean
	if !(wK > 0) || !(mK > 0) {
		return []Phase{{Weight: 1, Rate: 1 / mean}}
	}
	return append(phases, Phase{Weight: wK, Rate: wK / mK})
}

// ValidatePhases checks the contract Phases() promises: weights
// positive and summing to 1, rates positive and finite, mixture mean
// equal to mean within tolerance. The kinetic engines run it when
// building their kernels so a broken custom Lifetime fails at
// configuration time.
func ValidatePhases(ph []Phase, mean float64) error {
	if len(ph) == 0 {
		return fmt.Errorf("churn: lifetime has no phases")
	}
	var sumW, sumMean float64
	for i, p := range ph {
		if !(p.Weight > 0) || p.Weight > 1 {
			return fmt.Errorf("churn: phase %d has invalid weight %v", i, p.Weight)
		}
		if !(p.Rate > 0) || math.IsInf(p.Rate, 1) {
			return fmt.Errorf("churn: phase %d has invalid rate %v", i, p.Rate)
		}
		sumW += p.Weight
		sumMean += p.Weight / p.Rate
	}
	if math.Abs(sumW-1) > 1e-9 {
		return fmt.Errorf("churn: phase weights sum to %v, want 1", sumW)
	}
	if math.Abs(sumMean-mean) > 1e-6*math.Max(1, mean) {
		return fmt.Errorf("churn: phase mixture mean %v does not preserve lifetime mean %v", sumMean, mean)
	}
	return nil
}
