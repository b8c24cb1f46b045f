package churn

import (
	"fmt"
	"math"

	"fpcc/internal/traffic"
)

// Flow opens one class of an engine: sessions are born by a Poisson
// process at Arrival flows/s and each lives an independent Lifetime.
// In the kinetic engines the class's configured population N is the
// population at t = 0 and the live population thereafter is
// N·(1 + born − died) with born/died tracked as normalized mass; in
// the packet engines N0 initial sessions are instantiated and each
// birth/death is an explicit event. The steady-state population is
// Little's law: Arrival · Lifetime.Mean().
type Flow struct {
	// Arrival is the Poisson session-birth rate in flows/s. Zero is
	// allowed (a draining population: deaths only).
	Arrival float64
	// Lifetime is the session-lifetime distribution.
	Lifetime Lifetime
	// Lambda0 and InitStd shape the newborn rate profile: a Gaussian
	// blob clipped to the engine's rate grid (InitStd = 0 is a point
	// mass). Newborns typically enter slow (small Lambda0) and ramp up
	// under the class's control law.
	Lambda0 float64
	InitStd float64
}

// Validate checks the open-system parameters; lMax bounds the newborn
// profile's center to the engine's rate domain.
func (f *Flow) Validate(lMax float64) error {
	switch {
	case f == nil:
		return nil
	case !(f.Arrival >= 0) || math.IsInf(f.Arrival, 1):
		return fmt.Errorf("churn: invalid arrival rate %v", f.Arrival)
	case f.Lifetime == nil:
		return fmt.Errorf("churn: nil lifetime")
	case !(f.Lambda0 >= 0) || f.Lambda0 > lMax:
		return fmt.Errorf("churn: newborn rate %v outside [0, %v]", f.Lambda0, lMax)
	case !(f.InitStd >= 0) || math.IsInf(f.InitStd, 1):
		return fmt.Errorf("churn: invalid newborn spread %v", f.InitStd)
	}
	return ValidatePhases(f.Lifetime.Phases(), f.Lifetime.Mean())
}

// MeanPopulation returns the Little's-law steady-state population
// Arrival · E[Lifetime].
func (f *Flow) MeanPopulation() float64 {
	return f.Arrival * f.Lifetime.Mean()
}

// Pulse is the deterministic duty-cycle envelope of a synchronized
// on/off blaster population: factor Hi for On seconds, Lo for Off
// seconds, repeating from t = 0, every attacker in phase. It is the
// density-engine view of a population of traffic.SquareWave-modulated
// sources — in the mean-field limit a population of DESYNCHRONIZED
// on/off sources averages to its mean factor (only the mean enters
// the queue coupling), so the interesting adversarial limit is the
// fully synchronized pulse, which is also the worst case for the
// queue. Its per-source packet-engine twin is a traffic.SquareWave
// with the same factors and durations.
type Pulse struct {
	sw traffic.SquareWave
}

// NewPulse validates (via traffic.NewSquareWave) and returns a pulse
// envelope: factor hi for durHi seconds, then lo for durLo, repeating.
func NewPulse(hi, lo, durHi, durLo float64) (*Pulse, error) {
	sw, err := traffic.NewSquareWave(hi, lo, durHi, durLo)
	if err != nil {
		return nil, err
	}
	return &Pulse{sw: *sw}, nil
}

// FactorAt returns the envelope's rate multiplier at time t.
func (p *Pulse) FactorAt(t float64) float64 {
	period := p.sw.DurHi + p.sw.DurLo
	ph := math.Mod(t, period)
	if ph < 0 {
		ph += period
	}
	if ph < p.sw.DurHi {
		return p.sw.Hi
	}
	return p.sw.Lo
}

// MeanFactor returns the time-average multiplier.
func (p *Pulse) MeanFactor() float64 { return p.sw.MeanFactor() }
