package fokkerplanck

import (
	"math"
	"testing"

	"fpcc/internal/control"
	"fpcc/internal/sde"
)

// translateExactGaussian returns the exact translated/diffused
// Gaussian marginal for the frozen-law pure-advection problem, for
// comparing scheme accuracy.
func gaussian(x, mean, std float64) float64 {
	d := (x - mean) / std
	return math.Exp(-0.5*d*d) / (std * math.Sqrt(2*math.Pi))
}

// TestSecondOrderBeatsFirstOrderOnTranslation: advect a Gaussian blob
// at constant speed and compare each scheme's L1 error against the
// exact translate. The MUSCL scheme must cut the error at least in
// half.
func TestSecondOrderBeatsFirstOrderOnTranslation(t *testing.T) {
	run := func(secondOrder bool) float64 {
		cfg := Config{
			Law: control.Custom{
				DriftFunc: func(q, lambda float64) float64 { return 0 },
				QHat:      math.Inf(1),
			},
			Mu: 10, Sigma: 0,
			QMax: 80, NQ: 160,
			VMin: 3.9, VMax: 4.1, NV: 4, // v pinned near 4
			SecondOrder: secondOrder,
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SetGaussian(15, 4, 2.5, 0.02); err != nil {
			t.Fatal(err)
		}
		const horizon = 8.0
		if err := s.Advance(horizon, 0); err != nil {
			t.Fatal(err)
		}
		// Exact: marginal q is the initial Gaussian translated by the
		// per-row speed; all rows sit at speed ~ their center, so use
		// the measured mean-v displacement cellwise. Compare against
		// translate at each row's speed aggregated: with the narrow v
		// band, translating by 4·t is accurate to the band width.
		marg := s.MarginalQ()
		gx := s.Grid().X
		var l1 float64
		for i, d := range marg {
			x := gx.Center(i)
			want := gaussian(x, 15+4*horizon, 2.5)
			l1 += math.Abs(d-want) * gx.Dx
		}
		return l1
	}
	e1 := run(false)
	e2 := run(true)
	if !(e2 < e1/2) {
		t.Fatalf("second-order L1 error %v not clearly better than first-order %v", e2, e1)
	}
}

// TestSecondOrderMassAndPositivity: the TVD scheme must conserve mass
// (up to tracked outflow) and produce negligible negative mass on a
// full adaptive run.
func TestSecondOrderMassAndPositivity(t *testing.T) {
	cfg := baseConfig()
	cfg.SecondOrder = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetGaussian(5, -5, 2, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(30, 0); err != nil {
		t.Fatal(err)
	}
	m := s.Moments()
	total := m.Mass + s.OutflowMass()
	if math.Abs(total-1) > 0.02+s.ClippedMass() {
		t.Fatalf("mass %v + outflow %v = %v (clipped %v)", m.Mass, s.OutflowMass(), total, s.ClippedMass())
	}
	if s.ClippedMass() > 0.01 {
		t.Fatalf("clipped mass %v too large for a TVD scheme", s.ClippedMass())
	}
	for i, v := range s.f {
		if v < 0 {
			t.Fatalf("negative density %v at %d after clipping", v, i)
		}
	}
}

// TestSecondOrderTightensMonteCarloMatch: the scheme ablation that
// motivated MUSCL — the late-transient variance over-prediction of the
// first-order scheme shrinks with the second-order sweeps.
func TestSecondOrderTightensMonteCarloMatch(t *testing.T) {
	law := control.AIMD{C0: 2, C1: 0.8, QHat: 20}
	const sigma = 1.5
	const q0, l0, stdQ, stdL = 5.0, 8.0, 1.5, 1.0
	const horizon = 15.0

	mcVar := func() float64 {
		ens, err := sde.New(sde.Config{
			Law: law, Mu: 10, Sigma: sigma,
			Particles: 20000, Dt: 2e-3, Seed: 21,
			Q0: q0, Lambda0: l0, InitStdQ: stdQ, InitStdL: stdL,
		})
		if err != nil {
			t.Fatal(err)
		}
		ens.Run(horizon)
		return ens.Moments().VarQ
	}()

	fpVar := func(secondOrder bool) float64 {
		cfg := baseConfig()
		cfg.Law = law
		cfg.Sigma = sigma
		cfg.SecondOrder = secondOrder
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SetGaussian(q0, l0-10, stdQ, stdL); err != nil {
			t.Fatal(err)
		}
		if err := s.Advance(horizon, 0); err != nil {
			t.Fatal(err)
		}
		return s.Moments().VarQ
	}
	v1 := fpVar(false)
	v2 := fpVar(true)
	gap1 := math.Abs(v1 - mcVar)
	gap2 := math.Abs(v2 - mcVar)
	if !(gap2 < gap1) {
		t.Fatalf("second-order Var gap %v (FP %v) not better than first-order %v (FP %v); MC %v",
			gap2, v2, gap1, v1, mcVar)
	}
}

func BenchmarkStepSecondOrder(b *testing.B) {
	cfg := baseConfig()
	cfg.SecondOrder = true
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.SetGaussian(10, 0, 2, 1); err != nil {
		b.Fatal(err)
	}
	dt := s.MaxStableDt()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Step(dt); err != nil {
			b.Fatal(err)
		}
	}
}
