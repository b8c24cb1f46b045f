package meanfield

import (
	"fmt"
	"math"
	"strconv"

	"fpcc/internal/churn"
	"fpcc/internal/control"
	"fpcc/internal/grid"
	"fpcc/internal/obs"
)

// classKernel bundles the transport kernels of one class. A closed
// class (no churn) owns exactly one RateDensity and every method
// delegates, so the classic engines' trajectories are bit-identical
// through this wrapper. An open class owns one RateDensity per
// lifetime phase: newborns are split across phases by the lifetime's
// phase weights and each phase's mass decays at its hazard, which is
// the Markovian (hyperexponential) representation of the session
// lifetime — exact for exponential lifetimes, a mean-exact tail fit
// for Pareto (see churn.Lifetime).
//
// Both engine couplings read the class through the same two numbers:
// MeanRate (⟨λ⟩ over the live mass) and LiveMass (base + born − died,
// the population in units of the initial N), so the offered rate is
// w·N·MeanRate·LiveMass with LiveMass exactly 1 for closed classes.
type classKernel struct {
	ph     []*RateDensity
	hazard []float64 // per-phase death hazard (1/s; 0 on closed kernels)
	share  []float64 // per-phase birth split (the lifetime's phase weights)

	// birthProfile is the cached newborn blob (unit mass, density
	// units) and birthRate the normalized mass birth rate Arrival/N;
	// both zero on closed kernels.
	birthProfile []float64
	birthRate    float64
}

// newClassKernel builds the kernel group of one class: a single
// kernel at the class's initial blob when ch is nil, otherwise one
// phase kernel per lifetime phase (each starting with the phase's
// share of the initial blob — the t = 0 population is "fresh", phase
// composition equal to a newborn's, matching the packet engines
// sampling full lifetimes at t = 0). n is the class's initial
// population, used only to normalize the arrival rate to mass units.
func newClassKernel(lMax float64, bins int, lambda0, initStd float64, secondOrder bool, n int, ch *churn.Flow) (*classKernel, error) {
	if ch == nil {
		rd, err := NewRateDensity(lMax, bins, lambda0, initStd, secondOrder)
		if err != nil {
			return nil, err
		}
		return &classKernel{ph: []*RateDensity{rd}, hazard: []float64{0}, share: []float64{1}}, nil
	}
	if err := ch.Validate(lMax); err != nil {
		return nil, err
	}
	phases := ch.Lifetime.Phases()
	k := &classKernel{birthRate: ch.Arrival / float64(n)}
	for _, p := range phases {
		rd, err := NewRateDensity(lMax, bins, lambda0, initStd, secondOrder)
		if err != nil {
			return nil, err
		}
		rd.ScaleInit(p.Weight)
		if len(k.ph) > 0 {
			rd.drift = k.ph[0].drift // the phases see one law at one backlog
		}
		k.ph = append(k.ph, rd)
		k.hazard = append(k.hazard, p.Rate)
		k.share = append(k.share, p.Weight)
	}
	profile, err := k.ph[0].BlobProfile(ch.Lambda0, ch.InitStd)
	if err != nil {
		return nil, fmt.Errorf("newborn profile: %w", err)
	}
	k.birthProfile = profile
	return k, nil
}

// Open reports whether the kernel carries birth–death dynamics.
func (k *classKernel) Open() bool {
	return k.birthRate > 0 || k.hazard[0] > 0 || len(k.ph) > 1
}

// Grid returns the shared λ-axis.
func (k *classKernel) Grid() grid.Uniform1D { return k.ph[0].Grid() }

// Phase returns the i-th phase kernel (tests and probes; the slice
// structure is an implementation detail of the lifetime fit).
func (k *classKernel) Phase(i int) *RateDensity { return k.ph[i] }

// NumPhases returns the number of phase kernels.
func (k *classKernel) NumPhases() int { return len(k.ph) }

// Marginal returns the class's rate density: the single kernel's copy
// for closed classes, the per-phase sum for open ones.
func (k *classKernel) Marginal() []float64 {
	m := k.ph[0].Marginal()
	for _, rd := range k.ph[1:] {
		for i, v := range rd.Marginal() {
			m[i] += v
		}
	}
	return m
}

// Mass returns the summed ∫f over phases.
func (k *classKernel) Mass() float64 {
	var m float64
	for _, rd := range k.ph {
		m += rd.Mass()
	}
	return m
}

// ClippedMass returns the summed undershoot audit over phases.
func (k *classKernel) ClippedMass() float64 {
	var c float64
	for _, rd := range k.ph {
		c += rd.ClippedMass()
	}
	return c
}

// LiveMass returns the class's live population in units of its
// initial N: Σ over phases of base + born − died. Exactly 1 for a
// closed class, so the engines can multiply offered rates by it
// unconditionally without perturbing legacy trajectories.
func (k *classKernel) LiveMass() float64 {
	var m float64
	for _, rd := range k.ph {
		m += rd.Budget()
	}
	return m
}

// Born returns the cumulative born mass over phases.
func (k *classKernel) Born() float64 {
	var m float64
	for _, rd := range k.ph {
		m += rd.Born()
	}
	return m
}

// Died returns the cumulative died mass over phases.
func (k *classKernel) Died() float64 {
	var m float64
	for _, rd := range k.ph {
		m += rd.Died()
	}
	return m
}

// MeanRate returns ⟨λ⟩ over the class's whole live mass (phase masses
// pooled before normalizing, so clipping bias stays uniform). It
// delegates on closed kernels — the same arithmetic, one call.
func (k *classKernel) MeanRate() float64 {
	if len(k.ph) == 1 {
		return k.ph[0].MeanRate()
	}
	var mass, m1 float64
	for _, rd := range k.ph {
		for i, v := range rd.f {
			mass += v
			m1 += v * rd.lc[i]
		}
	}
	if mass <= 0 {
		return math.NaN()
	}
	return m1 / mass
}

// Moments returns the pooled mean and variance over phases,
// normalized by the class's current mass.
func (k *classKernel) Moments() (mean, variance float64) {
	if len(k.ph) == 1 {
		return k.ph[0].Moments()
	}
	var mass, m1 float64
	for _, rd := range k.ph {
		for i, v := range rd.f {
			mass += v
			m1 += v * rd.lc[i]
		}
	}
	if mass <= 0 {
		return math.NaN(), math.NaN()
	}
	mean = m1 / mass
	var m2 float64
	for _, rd := range k.ph {
		for i, v := range rd.f {
			dl := rd.lc[i] - mean
			m2 += v * dl * dl
		}
	}
	return mean, m2 / mass
}

// SetDrift caches (and CFL-checks) the drift for every phase kernel
// without mutating any density — same protocol as RateDensity. The
// phases share one λ-grid, law and backlog, so the drift is computed
// once, into the slice they share, and only the Courant margin is
// copied.
func (k *classKernel) SetDrift(law control.Law, qObs, dt float64) error {
	if err := k.ph[0].SetDrift(law, qObs, dt); err != nil {
		return err
	}
	for _, rd := range k.ph[1:] {
		rd.courant = k.ph[0].courant
	}
	return nil
}

// Advect applies the cached transport step to every phase kernel.
func (k *classKernel) Advect(dt float64) {
	for _, rd := range k.ph {
		rd.Advect(dt)
	}
}

// ClampNegative clips undershoots on every phase kernel.
func (k *classKernel) ClampNegative() {
	for _, rd := range k.ph {
		rd.ClampNegative()
	}
}

// StepChurn applies one dt of birth–death dynamics: each phase decays
// by its exact per-step survival factor 1 − e^(−hazard·dt), then
// newborn mass birthRate·dt is deposited at the newborn profile,
// split across phases by the lifetime's phase weights (deaths first,
// so mass born within the step does not die within it). A no-op on
// closed kernels. Touches only this class's kernels, so engines run
// it inside their per-class parallel sections.
func (k *classKernel) StepChurn(dt float64) {
	for i, rd := range k.ph {
		if h := k.hazard[i]; h > 0 {
			rd.Decay(-math.Expm1(-h * dt))
		}
		if k.birthRate > 0 {
			rd.Deposit(k.birthProfile, k.birthRate*dt*k.share[i])
		}
	}
}

// FaultInjectBorn adds delta to phase i's born ledger without
// depositing any density mass — a fault-injection hook for the
// engines' invariant tests, which corrupt the ledger and assert the
// next step's mass-budget check names the exact kernel and step.
// Never called outside tests.
func (k *classKernel) FaultInjectBorn(i int, delta float64) {
	k.ph[i].born += delta
}

// CheckInvariants runs the per-phase conservation checks: field-named
// as the class on closed kernels, with a ".ph<i>" suffix per phase on
// open multi-phase ones, so a violation names the exact kernel.
func (k *classKernel) CheckInvariants(rec *obs.Recorder, step int64, t float64, field string) error {
	if len(k.ph) == 1 {
		return k.ph[0].CheckInvariants(rec, step, t, field)
	}
	for i, rd := range k.ph {
		if err := rd.CheckInvariants(rec, step, t, field+".ph"+strconv.Itoa(i)); err != nil {
			return err
		}
	}
	return nil
}
