package meanfield

import (
	"errors"
	"math"
	"testing"

	"fpcc/internal/churn"
	"fpcc/internal/obs"
)

// churnConfig opens the canonical scaled scenario: n sources alive at
// t = 0, sessions arriving at `arrivals` flows/s with the given
// lifetime, newborns entering at the class blob.
func churnConfig(n int, arrivals float64, lt churn.Lifetime) Config {
	cfg := testConfig(n)
	cfg.Classes[0].Churn = &churn.Flow{
		Arrival: arrivals, Lifetime: lt, Lambda0: 1, InitStd: 0.3,
	}
	return cfg
}

// TestDensityChurnSteadyPopulation pins the birth–death dynamics
// against the analytic phase-wise transient: each phase's live mass
// obeys live_i' = β·w_i − r_i·live_i, so the population at time t is
// known in closed form and relaxes toward Little's-law α·mean. Checked
// from above (N > α·m) and below (N < α·m), for the exact exponential
// representation and the fitted Pareto one (whose slow tail phases
// keep it far from the fixed point at t = 60 — exactly what the
// closed form predicts).
func TestDensityChurnSteadyPopulation(t *testing.T) {
	const mean = 4.0
	exp, err := churn.NewExponential(mean)
	if err != nil {
		t.Fatal(err)
	}
	// α = 1.5 with mean 3xm: Pareto(1.5, xm) has mean xm·α/(α−1).
	par, err := churn.NewPareto(1.5, mean/3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		n    int
		lt   churn.Lifetime
	}{
		{"exp from above", 2000, exp},
		{"exp from below", 500, exp},
		{"pareto from above", 2000, par},
		{"pareto from below", 500, par},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const arrivals = 250.0 // target population 250·4 = 1000
			cfg := churnConfig(tc.n, arrivals, tc.lt)
			d, err := NewDensity(cfg)
			if err != nil {
				t.Fatal(err)
			}
			const tEnd = 60.0
			if err := d.Run(tEnd); err != nil {
				t.Fatal(err)
			}
			// Closed-form expectation: at t = 0 each phase holds weight
			// w_i of the (normalized) population, births feed it at
			// β·w_i = (α/N)·w_i, deaths drain it at r_i·live_i.
			beta := arrivals / float64(tc.n)
			var live float64
			for _, p := range tc.lt.Phases() {
				decay := math.Exp(-p.Rate * tEnd)
				live += p.Weight*decay + beta*p.Weight/p.Rate*(1-decay)
			}
			want := float64(tc.n) * live
			pop := d.ClassPopulation(0)
			if gap := math.Abs(pop-want) / want; gap > 0.01 {
				t.Errorf("live population %.1f at t=%g, closed form says %.1f (gap %.2f%%)",
					pop, tEnd, want, 100*gap)
			}
			// And the fixed point itself is Little's law: fully relaxed
			// for the exponential cases at 15 lifetimes.
			if _, exp := tc.lt.(*churn.Exponential); exp {
				target := arrivals * tc.lt.Mean()
				if gap := math.Abs(pop-target) / target; gap > 0.02 {
					t.Errorf("live population %.1f after 15 lifetimes, want %.1f (Little's law; gap %.2f%%)",
						pop, target, 100*gap)
				}
			}
		})
	}
}

// TestDensityChurnMassConservation checks the exact ledger identity
// ∫f = base + clipped + born − died directly (not through the obs
// layer) after a churn-heavy multi-phase run.
func TestDensityChurnMassConservation(t *testing.T) {
	par, err := churn.NewPareto(1.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := churnConfig(1000, 500, par)
	d, err := NewDensity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(20); err != nil {
		t.Fatal(err)
	}
	kern := d.kerns[0]
	if len(kern.ph) < 2 {
		t.Fatalf("Pareto kernel has %d phases, want multi-phase", len(kern.ph))
	}
	var got float64
	for _, rd := range kern.ph {
		got += rd.Mass()
	}
	want := 1 + kern.ClippedMass() + kern.Born() - kern.Died()
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("mass budget drifted: ∫f = %.12f, ledger says %.12f", got, want)
	}
	if kern.Born() <= 0 || kern.Died() <= 0 {
		t.Errorf("ledger did not move: born %v died %v", kern.Born(), kern.Died())
	}
}

// TestDensityChurnInvariantsCleanRun pins the positive case: an
// instrumented open-system run (multi-phase Pareto lifetimes, live
// births and deaths every step) stays violation-free under the
// extended mass budget ∫f = base + clipped + born − died.
func TestDensityChurnInvariantsCleanRun(t *testing.T) {
	par, err := churn.NewPareto(1.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := churnConfig(1000, 500, par)
	rec := (&obs.Config{Invariants: true}).Recorder("mf")
	cfg.Obs = rec
	d, err := NewDensity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(10); err != nil {
		t.Fatalf("instrumented churn run failed: %v", err)
	}
	if n := rec.Violations(); n != 0 {
		t.Fatalf("clean churn run recorded %d violations", n)
	}
}

// TestDensityChurnBirthLedgerFault corrupts the birth ledger of an
// open single-phase (exponential) class — crediting born mass that
// was never deposited — and requires the next Step to fail with a
// *obs.Violation naming the class mass field and the exact step.
func TestDensityChurnBirthLedgerFault(t *testing.T) {
	exp, err := churn.NewExponential(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := churnConfig(1000, 250, exp)
	rec := (&obs.Config{Invariants: true}).Recorder("mf")
	cfg.Obs = rec
	d, err := NewDensity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Step(); err != nil {
		t.Fatalf("clean step rejected: %v", err)
	}
	d.kerns[0].FaultInjectBorn(0, 0.25)
	err = d.Step()
	if err == nil {
		t.Fatal("corrupted birth ledger passed the invariant checker")
	}
	var v *obs.Violation
	if !errors.As(err, &v) {
		t.Fatalf("error %v is not a *obs.Violation", err)
	}
	if want := "mf." + cfg.ClassName(0) + ".mass"; v.Field != want {
		t.Errorf("violation field = %q, want %q", v.Field, want)
	}
	if v.Step != 2 {
		t.Errorf("violation step = %d, want 2 (the first step after corruption)", v.Step)
	}
	if rec.Violations() != 1 {
		t.Errorf("recorder counted %d violations, want 1", rec.Violations())
	}
}

// TestDensityChurnBirthLedgerFaultPhase corrupts a single phase of a
// multi-phase (Pareto) kernel and requires the violation to name that
// exact phase kernel via the ".ph<i>" field suffix.
func TestDensityChurnBirthLedgerFaultPhase(t *testing.T) {
	par, err := churn.NewPareto(1.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := churnConfig(1000, 250, par)
	rec := (&obs.Config{Invariants: true}).Recorder("mf")
	cfg.Obs = rec
	d, err := NewDensity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.kerns[0].ph) < 2 {
		t.Fatalf("Pareto kernel has %d phases, want multi-phase", len(d.kerns[0].ph))
	}
	if err := d.Step(); err != nil {
		t.Fatalf("clean step rejected: %v", err)
	}
	d.kerns[0].FaultInjectBorn(1, 0.25)
	err = d.Step()
	if err == nil {
		t.Fatal("corrupted phase birth ledger passed the invariant checker")
	}
	var v *obs.Violation
	if !errors.As(err, &v) {
		t.Fatalf("error %v is not a *obs.Violation", err)
	}
	if want := "mf." + cfg.ClassName(0) + ".ph1.mass"; v.Field != want {
		t.Errorf("violation field = %q, want %q", v.Field, want)
	}
	if v.Step != 2 {
		t.Errorf("violation step = %d, want 2", v.Step)
	}
}

// TestDensityPulseScalesCoupling pins the pulse envelope's coupling
// contract: a pulsed class contributes exactly FactorAt(t) times the
// unpulsed offered rate, and the per-source density itself is
// untouched (the envelope models synchronized on/off blasting, not a
// rate change).
func TestDensityPulseScalesCoupling(t *testing.T) {
	plain := testConfig(1000)
	d0, err := NewDensity(plain)
	if err != nil {
		t.Fatal(err)
	}
	pulsed := testConfig(1000)
	p, err := churn.NewPulse(1.5, 0.25, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	pulsed.Classes[0].Pulse = p
	d1, err := NewDensity(pulsed)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := d1.AggregateRate(), d0.AggregateRate()*p.FactorAt(0); got != want {
		t.Errorf("pulsed aggregate at t=0 is %v, want factor-scaled %v", got, want)
	}
	m0, m1 := d0.Marginal(0), d1.Marginal(0)
	for i := range m0 {
		if m0[i] != m1[i] {
			t.Fatalf("pulse perturbed the per-source density at bin %d: %v vs %v", i, m0[i], m1[i])
		}
	}
}

// TestParticlesRejectOpenClasses pins the backend split: the particle
// engine has no birth–death or envelope support and must say so at
// construction instead of silently simulating a closed system.
func TestParticlesRejectOpenClasses(t *testing.T) {
	exp, err := churn.NewExponential(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := churnConfig(1000, 250, exp)
	if _, err := NewParticles(cfg, 1, 0); err == nil {
		t.Error("particle backend accepted an open (churn) class")
	}
	pcfg := testConfig(1000)
	p, err := churn.NewPulse(1.5, 0.25, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	pcfg.Classes[0].Pulse = p
	if _, err := NewParticles(pcfg, 1, 0); err == nil {
		t.Error("particle backend accepted a pulsed class")
	}
}
