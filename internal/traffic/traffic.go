// Package traffic models bursty arrival processes — Markov-modulated
// Poisson processes (MMPP), on/off sources and square-wave
// modulation — together with the burstiness measurement
// (index of dispersion for counts) used to characterize them.
//
// The paper's closing claim is that the Fokker-Planck model "addresses
// traffic variability (to some extent) that fluid approximation
// techniques do not address". This package supplies the variability:
// arrival streams whose index of dispersion is far above the Poisson
// value of 1, which stress the feedback controllers in ways a constant-
// rate fluid cannot. The packet simulator (internal/des) accepts any
// Modulator as a per-source rate envelope.
package traffic

import (
	"fmt"
	"math"

	"fpcc/internal/rng"
)

// Modulator describes a stationary piecewise-constant rate-modulation
// process: the instantaneous arrival rate of a modulated source is
// baseRate · Factor(state), with the state evolving as a semi-Markov
// chain. Implementations must be safe for concurrent use by
// independent goroutines holding independent rng.Sources (they are
// immutable descriptions; all randomness flows through the arguments).
type Modulator interface {
	// Name identifies the process family in reports.
	Name() string
	// States returns the number of modulation states.
	States() int
	// Factor returns the rate multiplier of a state (≥ 0).
	Factor(state int) float64
	// InitState draws the initial state from the stationary law.
	InitState(r *rng.Source) int
	// Sojourn draws the holding time in a state (> 0).
	Sojourn(state int, r *rng.Source) float64
	// Next draws the successor state.
	Next(state int, r *rng.Source) int
}

// MMPP is a Markov-modulated Poisson process: exponential sojourns
// with per-state rate multipliers. The special two-state case has
// closed-form burstiness (see IDCInfinity), which the tests exploit.
type MMPP struct {
	Factors []float64   // rate multiplier per state
	Switch  [][]float64 // Switch[i][j]: transition rate i→j (i≠j)
	name    string

	stationary []float64 // cached stationary law
	outRate    []float64 // total switch rate per state
}

// NewMMPP builds a general MMPP from factors and a switch-rate matrix.
func NewMMPP(factors []float64, sw [][]float64) (*MMPP, error) {
	m := &MMPP{Factors: factors, Switch: sw, name: "MMPP"}
	if err := m.init(); err != nil {
		return nil, err
	}
	return m, nil
}

// NewMMPP2 builds the two-state MMPP with multipliers f1, f2 and
// switch rates r12 (state 1 → 2) and r21.
func NewMMPP2(f1, f2, r12, r21 float64) (*MMPP, error) {
	m := &MMPP{
		Factors: []float64{f1, f2},
		Switch:  [][]float64{{0, r12}, {r21, 0}},
		name:    "MMPP2",
	}
	if err := m.init(); err != nil {
		return nil, err
	}
	return m, nil
}

// NewOnOff builds an on/off source: bursts at peak multiplier for
// Exp(meanOn) then silence for Exp(meanOff). peak is scaled so the
// long-run mean multiplier is exactly 1, keeping the modulated
// source's average rate equal to its nominal rate (the controller's
// λ). The burstiness β = (meanOn+meanOff)/meanOn is the peak factor.
func NewOnOff(meanOn, meanOff float64) (*MMPP, error) {
	if !(meanOn > 0) || !(meanOff > 0) {
		return nil, fmt.Errorf("traffic: on/off sojourns must be positive, got on=%v off=%v", meanOn, meanOff)
	}
	peak := (meanOn + meanOff) / meanOn
	m := &MMPP{
		Factors: []float64{peak, 0},
		Switch:  [][]float64{{0, 1 / meanOn}, {1 / meanOff, 0}},
		name:    "OnOff",
	}
	if err := m.init(); err != nil {
		return nil, err
	}
	return m, nil
}

// init validates and caches the stationary law.
func (m *MMPP) init() error {
	n := len(m.Factors)
	if n < 2 {
		return fmt.Errorf("traffic: MMPP needs at least 2 states, got %d", n)
	}
	if len(m.Switch) != n {
		return fmt.Errorf("traffic: switch matrix has %d rows, want %d", len(m.Switch), n)
	}
	for i, f := range m.Factors {
		if f < 0 || math.IsNaN(f) || math.IsInf(f, 1) {
			return fmt.Errorf("traffic: factor[%d] = %v invalid", i, f)
		}
	}
	m.outRate = make([]float64, n)
	for i, row := range m.Switch {
		if len(row) != n {
			return fmt.Errorf("traffic: switch row %d has %d entries, want %d", i, len(row), n)
		}
		for j, r := range row {
			if i == j {
				continue
			}
			if r < 0 || math.IsNaN(r) || math.IsInf(r, 1) {
				return fmt.Errorf("traffic: switch[%d][%d] = %v invalid", i, j, r)
			}
			m.outRate[i] += r
		}
		if !(m.outRate[i] > 0) {
			return fmt.Errorf("traffic: state %d has no way out (absorbing)", i)
		}
	}
	// Stationary law of the modulating CTMC by power iteration on the
	// uniformized kernel (the chains here are tiny).
	lambda := 0.0
	for _, o := range m.outRate {
		if o > lambda {
			lambda = o
		}
	}
	lambda *= 1.0000001
	cur := make([]float64, n)
	next := make([]float64, n)
	for i := range cur {
		cur[i] = 1 / float64(n)
	}
	for it := 0; it < 200000; it++ {
		for j := range next {
			next[j] = 0
		}
		for i, p := range cur {
			next[i] += p * (1 - m.outRate[i]/lambda)
			for j, r := range m.Switch[i] {
				if i != j && r > 0 {
					next[j] += p * r / lambda
				}
			}
		}
		var d float64
		for i := range next {
			d += math.Abs(next[i] - cur[i])
		}
		cur, next = next, cur
		if d < 1e-14 {
			break
		}
	}
	m.stationary = cur
	return nil
}

// Name implements Modulator.
func (m *MMPP) Name() string { return m.name }

// States implements Modulator.
func (m *MMPP) States() int { return len(m.Factors) }

// Factor implements Modulator.
func (m *MMPP) Factor(state int) float64 { return m.Factors[state] }

// Stationary returns the stationary law of the modulating chain.
func (m *MMPP) Stationary() []float64 {
	return append([]float64(nil), m.stationary...)
}

// MeanFactor returns the long-run mean rate multiplier E[Factor].
func (m *MMPP) MeanFactor() float64 {
	var s float64
	for i, p := range m.stationary {
		s += p * m.Factors[i]
	}
	return s
}

// InitState implements Modulator: draw from the stationary law.
func (m *MMPP) InitState(r *rng.Source) int {
	u := r.Float64()
	var cum float64
	for i, p := range m.stationary {
		cum += p
		if u < cum {
			return i
		}
	}
	return len(m.stationary) - 1
}

// Sojourn implements Modulator: exponential holding time.
func (m *MMPP) Sojourn(state int, r *rng.Source) float64 {
	return r.Exp(m.outRate[state])
}

// Next implements Modulator: jump proportional to switch rates.
func (m *MMPP) Next(state int, r *rng.Source) int {
	u := r.Float64() * m.outRate[state]
	var cum float64
	for j, rate := range m.Switch[state] {
		if j == state {
			continue
		}
		cum += rate
		if u < cum {
			return j
		}
	}
	// Floating-point slack: return the last reachable state.
	for j := len(m.Switch[state]) - 1; j >= 0; j-- {
		if j != state && m.Switch[state][j] > 0 {
			return j
		}
	}
	return state
}

// IDCInfinity returns the large-window limit of the index of
// dispersion for counts of a two-state MMPP driven at the given base
// rate b (arrival rate in state i is b·fᵢ):
//
//	IDC(∞) = 1 + 2·b·π1·π2·(f1−f2)² / ((r12+r21)·f̄)
//
// The Poisson term contributes the 1; the modulation term scales with
// the base rate because rate fluctuations add variance ∝ b² while the
// mean count grows only ∝ b. For f1 = f2 the IDC is 1 at every rate.
// Only defined for 2-state chains.
func (m *MMPP) IDCInfinity(baseRate float64) (float64, error) {
	if len(m.Factors) != 2 {
		return 0, fmt.Errorf("traffic: IDCInfinity needs a 2-state MMPP, have %d states", len(m.Factors))
	}
	if !(baseRate > 0) || math.IsInf(baseRate, 1) {
		return 0, fmt.Errorf("traffic: base rate must be positive, got %v", baseRate)
	}
	r12, r21 := m.Switch[0][1], m.Switch[1][0]
	pi1 := r21 / (r12 + r21)
	pi2 := 1 - pi1
	fbar := pi1*m.Factors[0] + pi2*m.Factors[1]
	if !(fbar > 0) {
		return 0, fmt.Errorf("traffic: mean factor is zero")
	}
	d := m.Factors[0] - m.Factors[1]
	return 1 + 2*baseRate*pi1*pi2*d*d/((r12+r21)*fbar), nil
}

// SquareWave is a deterministic two-state modulator: factor hi for
// durHi seconds, lo for durLo, repeating. It is the worst-case
// periodic burst pattern (no randomness to average over) and doubles
// as a test fixture with exactly predictable switch times.
type SquareWave struct {
	Hi, Lo       float64
	DurHi, DurLo float64
}

// NewSquareWave validates and returns a square-wave modulator.
func NewSquareWave(hi, lo, durHi, durLo float64) (*SquareWave, error) {
	switch {
	case hi < 0 || lo < 0 || math.IsNaN(hi) || math.IsNaN(lo):
		return nil, fmt.Errorf("traffic: square-wave factors must be ≥ 0, got %v / %v", hi, lo)
	case !(durHi > 0) || !(durLo > 0):
		return nil, fmt.Errorf("traffic: square-wave durations must be positive, got %v / %v", durHi, durLo)
	}
	return &SquareWave{Hi: hi, Lo: lo, DurHi: durHi, DurLo: durLo}, nil
}

// Name implements Modulator.
func (s *SquareWave) Name() string { return "SquareWave" }

// States implements Modulator.
func (s *SquareWave) States() int { return 2 }

// Factor implements Modulator.
func (s *SquareWave) Factor(state int) float64 {
	if state == 0 {
		return s.Hi
	}
	return s.Lo
}

// InitState implements Modulator: start in the hi phase.
func (s *SquareWave) InitState(*rng.Source) int { return 0 }

// Sojourn implements Modulator: deterministic phase durations.
func (s *SquareWave) Sojourn(state int, _ *rng.Source) float64 {
	if state == 0 {
		return s.DurHi
	}
	return s.DurLo
}

// Next implements Modulator: alternate phases.
func (s *SquareWave) Next(state int, _ *rng.Source) int { return 1 - state }

// MeanFactor returns the time-average multiplier.
func (s *SquareWave) MeanFactor() float64 {
	return (s.Hi*s.DurHi + s.Lo*s.DurLo) / (s.DurHi + s.DurLo)
}

// Arrivals generates the arrival times of a modulated Poisson process
// with the given base rate over [0, horizon]: in state s arrivals are
// Poisson with rate baseRate·Factor(s).
func Arrivals(m Modulator, r *rng.Source, baseRate, horizon float64) ([]float64, error) {
	if m == nil {
		return nil, fmt.Errorf("traffic: nil modulator")
	}
	if !(baseRate > 0) || math.IsInf(baseRate, 1) {
		return nil, fmt.Errorf("traffic: base rate must be positive, got %v", baseRate)
	}
	if !(horizon > 0) {
		return nil, fmt.Errorf("traffic: horizon must be positive, got %v", horizon)
	}
	if r == nil {
		return nil, fmt.Errorf("traffic: nil rng")
	}
	var times []float64
	state := m.InitState(r)
	t := 0.0
	switchAt := m.Sojourn(state, r)
	for t < horizon {
		rate := baseRate * m.Factor(state)
		var nextArr float64
		if rate > 0 {
			nextArr = t + r.Exp(rate)
		} else {
			nextArr = math.Inf(1)
		}
		if nextArr < switchAt {
			if nextArr > horizon {
				break
			}
			t = nextArr
			times = append(times, t)
		} else {
			t = switchAt
			state = m.Next(state, r)
			switchAt = t + m.Sojourn(state, r)
		}
	}
	return times, nil
}
