// Package fluid implements the deterministic fluid approximation of
// Bolot and Shankar [BoSh 90], the model the paper positions its
// Fokker-Planck analysis against. Queue length and source rates are
// coupled ordinary (or, with feedback delay, delay) differential
// equations:
//
//	dQ/dt  = Σᵢ λᵢ(t) − μ          (Q reflected at 0)
//	dλᵢ/dt = gᵢ(Q(t−τᵢ), λᵢ(t))    (one feedback law per source)
//
// Both Q(t) and λᵢ(t) are deterministic — that is precisely the
// limitation the paper's Section 3 discusses: the fluid model carries
// no variability, so it cannot say anything about the spread of the
// queue around its mean (experiment E10 quantifies this).
//
// The model supports N heterogeneous sources with per-source feedback
// delays, which is what Sections 6 and 7 need: equal-parameter sources
// (fairness), heterogeneous parameters (the exact-share law), and
// heterogeneous delays (delay-induced unfairness).
package fluid

import (
	"fmt"
	"math"

	"fpcc/internal/control"
	"fpcc/internal/dde"
)

// Source is one sender in the fluid model.
type Source struct {
	Law     control.Law // its rate-adjustment law
	Delay   float64     // feedback delay τ (0 = instantaneous feedback)
	Lambda0 float64     // initial sending rate
}

// Model is a bottleneck queue shared by N controlled sources.
type Model struct {
	Mu      float64  // bottleneck service rate
	Q0      float64  // initial queue length
	Sources []Source // the senders
}

// Validate checks the model parameters. Every float must be finite:
// a NaN or infinite initial state poisons the whole trajectory, and
// an infinite delay has no history to read.
func (m *Model) Validate() error {
	switch {
	case !(m.Mu > 0) || math.IsInf(m.Mu, 1):
		return fmt.Errorf("fluid: service rate must be positive and finite, got %v", m.Mu)
	case !finiteNonNeg(m.Q0):
		return fmt.Errorf("fluid: initial queue must be finite and non-negative, got %v", m.Q0)
	case len(m.Sources) == 0:
		return fmt.Errorf("fluid: no sources")
	}
	for i, s := range m.Sources {
		if s.Law == nil {
			return fmt.Errorf("fluid: source %d has nil law", i)
		}
		if !finiteNonNeg(s.Delay) {
			return fmt.Errorf("fluid: source %d delay must be finite and non-negative, got %v", i, s.Delay)
		}
		if !finiteNonNeg(s.Lambda0) {
			return fmt.Errorf("fluid: source %d initial rate must be finite and non-negative, got %v", i, s.Lambda0)
		}
	}
	return nil
}

// finiteNonNeg reports whether x is a finite number >= 0 (NaN fails).
func finiteNonNeg(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

func allFinite(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// Solution is a solved fluid trajectory. State layout: index 0 is the
// queue length Q, index 1+i is λ of source i.
type Solution struct {
	*dde.Result
	NumSources int
}

// Queue returns the queue-length series (times alias the result
// storage).
func (s *Solution) Queue() (times, q []float64) { return s.Times, s.column(0) }

// Rate returns the rate series of source i.
func (s *Solution) Rate(i int) (times, lam []float64) {
	if i < 0 || i >= s.NumSources {
		panic(fmt.Sprintf("fluid: source index %d out of range [0, %d)", i, s.NumSources))
	}
	return s.Times, s.column(1 + i)
}

// column copies state component j of every sample.
func (s *Solution) column(j int) []float64 {
	out := make([]float64, s.Len())
	for k := range out {
		_, y := s.At(k)
		out[k] = y[j]
	}
	return out
}

// MeanRates returns the time-averaged rate of each source over
// [tFrom, end], computed by trapezoidal integration. Used as the
// throughput measure in the fairness experiments.
func (s *Solution) MeanRates(tFrom float64) []float64 {
	n := s.NumSources
	means := make([]float64, n)
	var span float64
	for k := 1; k < s.Len(); k++ {
		t0, y0 := s.At(k - 1)
		t1, y1 := s.At(k)
		if t1 <= tFrom {
			continue
		}
		lo := math.Max(t0, tFrom)
		w := t1 - lo
		if w <= 0 {
			continue
		}
		span += w
		for i := 0; i < n; i++ {
			means[i] += w * 0.5 * (y0[1+i] + y1[1+i])
		}
	}
	if span > 0 {
		for i := range means {
			means[i] /= span
		}
	}
	return means
}

// Solve integrates the model to time t1 with step h. With any nonzero
// delay h must not exceed the smallest nonzero delay (the underlying
// method of steps requires it). Stride subsamples the recorded output
// (0 = every step). A trajectory that leaves the finite floats — a
// step too coarse for the model, or a law whose drift is not finite —
// is an error.
func (m *Model) Solve(t1, h float64, stride int) (*Solution, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if math.IsNaN(t1) || math.IsInf(t1, 0) || math.IsInf(h, 1) {
		return nil, fmt.Errorf("fluid: horizon %v and step %v must be finite", t1, h)
	}
	n := len(m.Sources)
	delays := make([]float64, 0, n)
	for _, s := range m.Sources {
		if s.Delay > 0 {
			delays = append(delays, s.Delay)
		}
	}
	sys := func(t float64, y []float64, lag dde.Lagger, dydt []float64) {
		var total float64
		for i := 0; i < n; i++ {
			total += y[1+i]
		}
		dq := total - m.Mu
		if y[0] <= 0 && dq < 0 {
			dq = 0 // an empty queue cannot drain further
		}
		dydt[0] = dq
		for i := 0; i < n; i++ {
			qObs := y[0]
			if d := m.Sources[i].Delay; d > 0 {
				qObs = lag.Lag(0, d)
			}
			dydt[1+i] = m.Sources[i].Law.Drift(qObs, y[1+i])
		}
	}
	// Constant pre-history: the system sat at its initial state. The
	// solver only reads it, so one slice serves every call.
	pre := make([]float64, 1+n)
	pre[0] = m.Q0
	for i, s := range m.Sources {
		pre[1+i] = s.Lambda0
	}
	history := func(float64) []float64 { return pre }
	clamp := func(y []float64) {
		if y[0] < 0 {
			y[0] = 0
		}
		for i := 0; i < n; i++ {
			if y[1+i] < 0 {
				y[1+i] = 0
			}
		}
	}
	res, err := dde.Solve(sys, history, delays, 0, t1, h, dde.Options{Stride: stride, Clamp: clamp})
	if err != nil {
		return nil, err
	}
	// Once a state is NaN or +Inf it stays so (the clamp only lifts
	// negative values, -Inf included), so the last one speaks for all.
	if t, y := res.Last(); !allFinite(y) {
		return nil, fmt.Errorf("fluid: state %v at t=%v is not finite (step %v)", y, t, h)
	}
	return &Solution{Result: res, NumSources: n}, nil
}

// PredictedShares returns the paper's Section 6 closed-form share
// prediction for AIMD sources sharing one bottleneck with a common
// congestion signal: in the small-oscillation regime every source sees
// the same increase and decrease phase durations, so equilibrium
// requires C0ᵢ·T_up = λᵢ·C1ᵢ·T_down for each i, giving
//
//	λᵢ ∝ C0ᵢ / C1ᵢ,    shareᵢ = (C0ᵢ/C1ᵢ) / Σⱼ (C0ⱼ/C1ⱼ).
//
// Sources using identical parameters therefore receive exactly equal
// shares — the fairness half of the paper's Section 6 result.
func PredictedShares(laws []control.AIMD) ([]float64, error) {
	if len(laws) == 0 {
		return nil, fmt.Errorf("fluid: no laws")
	}
	shares := make([]float64, len(laws))
	var total float64
	for i, l := range laws {
		if !(l.C0 > 0) || !(l.C1 > 0) {
			return nil, fmt.Errorf("fluid: law %d has non-positive parameters", i)
		}
		shares[i] = l.C0 / l.C1
		total += shares[i]
	}
	for i := range shares {
		shares[i] /= total
	}
	return shares, nil
}
