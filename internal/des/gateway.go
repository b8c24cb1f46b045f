package des

import (
	"fmt"
	"math"

	"fpcc/internal/rng"
)

// Gateway models how the bottleneck router turns its queue into the
// congestion signal that sources receive. The paper's model feeds the
// raw queue length back; real gateways filter (DECbit averages over a
// bus-cycle window) or randomize (RED marks probabilistically on an
// EWMA of the queue). The choice changes the feedback loop's gain and
// phase, and with them the Section 7 oscillation story — which is why
// the experiment suite sweeps gateways with everything else fixed.
//
// A Gateway is stateful and single-sim: New resets it, and it must
// not be shared between concurrently running simulators.
//
// The protocol has two halves. Signal is called at every queue change
// and returns the value recorded into the feedback history (the
// "wire" signal, e.g. the instantaneous or averaged queue). Observe
// converts a delayed wire signal into the queue value handed to a
// source's control law — identity for transparent gateways, a
// Bernoulli mark mapped to above/below-threshold for RED.
type Gateway interface {
	// Name identifies the gateway discipline in reports.
	Name() string
	// Reset clears state for a new simulation starting at t = 0 with
	// an empty queue.
	Reset()
	// Signal ingests a queue change at time t (the queue has just
	// become q) and returns the signal value to record.
	Signal(t float64, q int) float64
	// Observe maps a recorded (delayed) signal to the queue value the
	// control law sees. qHat is the law's own target, used by marking
	// gateways to place their binary signal on the correct side of
	// the law's threshold. r supplies randomness for probabilistic
	// marking.
	Observe(sig, qHat float64, r *rng.Source) float64
}

// EWMAGateway feeds back a continuous-time exponentially weighted
// moving average of the queue with time constant Tc — the rate-based
// analogue of the DECbit averaged queue [RaJa 88]. Averaging strips
// the Poisson jitter from the signal at the cost of adding first-order
// lag Tc to the loop, which shifts the delay-oscillation boundary.
type EWMAGateway struct {
	// Tc is the averaging time constant in seconds (> 0).
	Tc float64

	avg   float64
	prevQ float64
	lastT float64
	init  bool
}

// NewEWMAGateway validates and returns an EWMA gateway.
func NewEWMAGateway(tc float64) (*EWMAGateway, error) {
	if !(tc > 0) || math.IsInf(tc, 1) || math.IsNaN(tc) {
		return nil, fmt.Errorf("des: EWMA time constant must be positive, got %v", tc)
	}
	return &EWMAGateway{Tc: tc}, nil
}

// Name implements Gateway.
func (g *EWMAGateway) Name() string { return "ewma" }

// Reset implements Gateway.
func (g *EWMAGateway) Reset() {
	g.avg, g.prevQ, g.lastT, g.init = 0, 0, 0, true
}

// Signal implements Gateway: before recording q at time t, the
// average decays toward the queue value that held on [lastT, t).
func (g *EWMAGateway) Signal(t float64, q int) float64 {
	if !g.init {
		g.Reset()
	}
	if dt := t - g.lastT; dt > 0 {
		w := 1 - math.Exp(-dt/g.Tc)
		g.avg += w * (g.prevQ - g.avg)
	}
	g.lastT = t
	g.prevQ = float64(q)
	return g.avg
}

// Observe implements Gateway: the law sees the averaged queue.
func (g *EWMAGateway) Observe(sig, _ float64, _ *rng.Source) float64 { return sig }

// REDGateway is a Random-Early-Detection-style marking gateway
// [Floyd-Jacobson style, simplified to the rate-control setting]: it
// tracks the EWMA of the queue and, at each control observation,
// marks "congested" with probability
//
//	p(avg) = 0                                  avg < MinTh
//	         MaxP·(avg−MinTh)/(MaxTh−MinTh)     MinTh ≤ avg < MaxTh
//	         1                                  avg ≥ MaxTh
//
// A marked observation is reported to the law as qHat+1 (decrease
// branch), an unmarked one as 0 (increase branch). Randomized early
// marking desynchronizes sources and starts the back-off before the
// queue reaches the hard threshold.
//
// The per-observation Bernoulli mark is the rate-based analogue of
// RED's per-packet marking: a source updating once per interval
// effectively samples the marking process once per RTT.
type REDGateway struct {
	MinTh, MaxTh float64 // marking thresholds in queue units
	MaxP         float64 // marking probability at MaxTh
	Tc           float64 // EWMA time constant (seconds)

	ewma EWMAGateway
}

// NewREDGateway validates and returns a RED gateway.
func NewREDGateway(minTh, maxTh, maxP, tc float64) (*REDGateway, error) {
	switch {
	case !(minTh >= 0) || math.IsNaN(minTh):
		return nil, fmt.Errorf("des: RED MinTh must be ≥ 0, got %v", minTh)
	case !(maxTh > minTh) || math.IsInf(maxTh, 1):
		return nil, fmt.Errorf("des: RED MaxTh must exceed MinTh, got %v ≤ %v", maxTh, minTh)
	case !(maxP > 0) || maxP > 1:
		return nil, fmt.Errorf("des: RED MaxP must be in (0,1], got %v", maxP)
	case !(tc > 0) || math.IsInf(tc, 1):
		return nil, fmt.Errorf("des: RED time constant must be positive, got %v", tc)
	}
	return &REDGateway{MinTh: minTh, MaxTh: maxTh, MaxP: maxP, Tc: tc, ewma: EWMAGateway{Tc: tc}}, nil
}

// Name implements Gateway.
func (g *REDGateway) Name() string { return "red" }

// Reset implements Gateway.
func (g *REDGateway) Reset() { g.ewma.Reset() }

// Signal implements Gateway: record the averaged queue.
func (g *REDGateway) Signal(t float64, q int) float64 { return g.ewma.Signal(t, q) }

// MarkProb returns the marking probability for an averaged queue.
func (g *REDGateway) MarkProb(avg float64) float64 {
	switch {
	case avg < g.MinTh:
		return 0
	case avg >= g.MaxTh:
		return 1
	default:
		return g.MaxP * (avg - g.MinTh) / (g.MaxTh - g.MinTh)
	}
}

// Observe implements Gateway: Bernoulli mark on the averaged queue.
func (g *REDGateway) Observe(sig, qHat float64, r *rng.Source) float64 {
	if r.Float64() < g.MarkProb(sig) {
		return qHat + 1 // congested: the law takes its decrease branch
	}
	return 0 // not congested: increase branch
}
