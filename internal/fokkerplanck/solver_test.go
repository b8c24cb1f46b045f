package fokkerplanck

import (
	"math"
	"testing"

	"fpcc/internal/control"
	"fpcc/internal/sde"
)

// frozen is a zero-drift law: v never changes, isolating the q
// operators.
var frozen = control.Custom{
	DriftFunc: func(q, lambda float64) float64 { return 0 },
	LawName:   "frozen",
	QHat:      math.Inf(1),
}

func baseConfig() Config {
	return Config{
		Law:   control.AIMD{C0: 2, C1: 0.8, QHat: 20},
		Mu:    10,
		Sigma: 1,
		QMax:  60, NQ: 120,
		VMin: -12, VMax: 12, NV: 96,
	}
}

func TestValidate(t *testing.T) {
	good := baseConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	muts := []func(*Config){
		func(c *Config) { c.Law = nil },
		func(c *Config) { c.Mu = 0 },
		func(c *Config) { c.Sigma = -1 },
		func(c *Config) { c.QMax = 0 },
		func(c *Config) { c.NQ = 2 },
		func(c *Config) { c.NV = 2 },
		func(c *Config) { c.VMax = c.VMin },
		func(c *Config) { c.Sigma = math.Inf(1) },
		func(c *Config) { c.Mu = math.Inf(1) },
	}
	for i, mut := range muts {
		c := baseConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestInitialConditionNormalized(t *testing.T) {
	s, err := New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetGaussian(10, 0, 2, 1); err != nil {
		t.Fatal(err)
	}
	m := s.Moments()
	if math.Abs(m.Mass-1) > 1e-9 {
		t.Fatalf("initial mass %v, want 1", m.Mass)
	}
	if math.Abs(m.MeanQ-10) > 0.1 {
		t.Fatalf("initial mean q %v, want 10", m.MeanQ)
	}
	if math.Abs(m.MeanV) > 0.1 {
		t.Fatalf("initial mean v %v, want 0", m.MeanV)
	}
	if math.Abs(m.VarQ-4) > 0.2 {
		t.Fatalf("initial var q %v, want 4", m.VarQ)
	}
}

func TestSetGaussianValidation(t *testing.T) {
	s, err := New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetGaussian(10, 0, 0, 1); err == nil {
		t.Error("accepted zero stdQ")
	}
}

// TestPureAdvectionQ: with frozen v-drift and no noise, a blob at
// v = v0 > 0 translates in q at speed v0 and conserves mass.
func TestPureAdvectionQ(t *testing.T) {
	cfg := baseConfig()
	cfg.Law = frozen
	cfg.Sigma = 0
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const v0 = 4.0
	if err := s.SetGaussian(10, v0, 2, 0.5); err != nil {
		t.Fatal(err)
	}
	m0 := s.Moments()
	if err := s.Advance(5, 0); err != nil {
		t.Fatal(err)
	}
	m := s.Moments()
	wantQ := m0.MeanQ + v0*5
	if math.Abs(m.MeanQ-wantQ) > 0.5 {
		t.Fatalf("mean q %v, want ~%v", m.MeanQ, wantQ)
	}
	if math.Abs(m.Mass+s.OutflowMass()-1) > 1e-6 {
		t.Fatalf("mass+outflow = %v, want 1", m.Mass+s.OutflowMass())
	}
	// Mean v frozen.
	if math.Abs(m.MeanV-v0) > 0.05 {
		t.Fatalf("mean v %v, want %v", m.MeanV, v0)
	}
}

// TestPureDiffusion: with frozen drift the system is exactly solvable:
// each v-row translates at its own speed, so
// Var[Q](t) = Var[Q](0) + σ²·t + Var[v]·t² (diffusion plus shear),
// and Var[v] stays constant.
func TestPureDiffusion(t *testing.T) {
	cfg := baseConfig()
	cfg.Law = frozen
	cfg.Sigma = 1.5
	cfg.QMax = 100
	cfg.NQ = 200
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetGaussian(50, 0, 2, 0.5); err != nil {
		t.Fatal(err)
	}
	m0 := s.Moments()
	const horizon = 4.0
	if err := s.Advance(horizon, 0.01); err != nil {
		t.Fatal(err)
	}
	m := s.Moments()
	want := m0.VarQ + cfg.Sigma*cfg.Sigma*horizon + m0.VarV*horizon*horizon
	// 10% tolerance absorbs the first-order upwind scheme's numerical
	// diffusion (~|v|·dq/2 per unit time).
	if math.Abs(m.VarQ-want)/want > 0.1 {
		t.Fatalf("Var[Q] = %v, want ~%v (diffusion + shear)", m.VarQ, want)
	}
	if math.Abs(m.VarV-m0.VarV)/m0.VarV > 0.02 {
		t.Fatalf("Var[v] drifted from %v to %v under frozen law", m0.VarV, m.VarV)
	}
	if math.Abs(m.Mass-1) > 1e-6 {
		t.Fatalf("mass %v, want 1 (diffusion conserves)", m.Mass)
	}
}

// TestMassAudit: over a long adaptive run, mass + outflow stays ~1 and
// the density stays non-negative.
func TestMassAudit(t *testing.T) {
	s, err := New(baseConfig())
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
		t.Fatalf("mass %v + outflow %v = %v, want ~1 (clipped %v)",
			m.Mass, s.OutflowMass(), total, s.ClippedMass())
	}
	for i, v := range s.f {
		if v < 0 {
			t.Fatalf("negative density %v at cell %d", v, i)
		}
	}
}

// TestAIMDConvergesToOperatingPoint: the headline qualitative check —
// under the paper's law with small noise, the density concentrates
// near (q̂, 0): mean q → q̂, mean v → 0.
func TestAIMDConvergesToOperatingPoint(t *testing.T) {
	cfg := baseConfig()
	cfg.Sigma = 0.5
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetGaussian(2, -8, 1.5, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(120, 0); err != nil {
		t.Fatal(err)
	}
	m := s.Moments()
	if math.Abs(m.MeanQ-20) > 3 {
		t.Fatalf("mean q %v, want near q̂ = 20", m.MeanQ)
	}
	if math.Abs(m.MeanV) > 1.5 {
		t.Fatalf("mean v %v, want near 0", m.MeanV)
	}
}

// TestMomentsMatchMonteCarlo is the package-level version of
// experiment E9: FP moments must track an SDE particle ensemble of the
// same system through the transient.
func TestMomentsMatchMonteCarlo(t *testing.T) {
	law := control.AIMD{C0: 2, C1: 0.8, QHat: 20}
	cfg := baseConfig()
	cfg.Law = law
	cfg.Sigma = 1.5
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const q0, l0, stdQ, stdL = 5.0, 8.0, 1.5, 1.0
	if err := s.SetGaussian(q0, l0-cfg.Mu, stdQ, stdL); err != nil {
		t.Fatal(err)
	}
	ens, err := sde.New(sde.Config{
		Law: law, Mu: cfg.Mu, Sigma: cfg.Sigma,
		Particles: 20000, Dt: 2e-3, Seed: 9,
		Q0: q0, Lambda0: l0, InitStdQ: stdQ, InitStdL: stdL,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Tolerances widen with time: the first-order upwind scheme's
	// numerical diffusion accumulates through the spiral transient.
	// E9 (EXPERIMENTS.md) quantifies the gap at finer resolutions.
	for _, cp := range []struct{ t, tolQ, tolL float64 }{
		{2, 1.0, 1.0}, {5, 1.2, 1.0}, {10, 1.5, 1.2}, {20, 2.0, 1.5},
	} {
		if err := s.Advance(cp.t, 0); err != nil {
			t.Fatal(err)
		}
		ens.Run(cp.t)
		fp := s.Moments()
		mc := ens.Moments()
		if math.Abs(fp.MeanQ-mc.MeanQ) > cp.tolQ {
			t.Errorf("t=%v: mean q FP %v vs MC %v", cp.t, fp.MeanQ, mc.MeanQ)
		}
		if math.Abs((fp.MeanV+cfg.Mu)-mc.MeanLam) > cp.tolL {
			t.Errorf("t=%v: mean λ FP %v vs MC %v", cp.t, fp.MeanV+cfg.Mu, mc.MeanLam)
		}
	}
}

func TestMarginalsIntegrateToMass(t *testing.T) {
	s, err := New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetGaussian(10, 0, 3, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(5, 0); err != nil {
		t.Fatal(err)
	}
	m := s.Moments()
	mq := s.MarginalQ()
	var sum float64
	for _, v := range mq {
		sum += v * s.Grid().X.Dx
	}
	if math.Abs(sum-m.Mass) > 1e-9 {
		t.Fatalf("marginal q integral %v, want mass %v", sum, m.Mass)
	}
}

// pointMass puts all of s's mass in the cell containing (q0, v0).
func pointMass(t *testing.T, s *Solver, q0, v0 float64) {
	t.Helper()
	clear(s.f)
	s.f[s.g2d.X.CellOf(q0)*s.cfg.NV+s.g2d.Y.CellOf(v0)] = 1
	if err := s.normalize(); err != nil {
		t.Fatal(err)
	}
}

func TestTailProb(t *testing.T) {
	s, err := New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	pointMass(t, s, 30, 0)
	if got := s.TailProb(20); math.Abs(got-1) > 1e-9 {
		t.Fatalf("TailProb(20) = %v, want 1", got)
	}
	if got := s.TailProb(40); got != 0 {
		t.Fatalf("TailProb(40) = %v, want 0", got)
	}
}

func TestStepValidation(t *testing.T) {
	s, err := New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	pointMass(t, s, 10, 0)
	if err := s.Step(0); err == nil {
		t.Error("accepted zero step")
	}
	if err := s.Step(1e9); err == nil {
		t.Error("accepted CFL-violating step")
	}
	if err := s.Advance(-1, 0); err == nil {
		t.Error("accepted backwards advance")
	}
}

func BenchmarkStep(b *testing.B) {
	s, err := New(baseConfig())
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

func BenchmarkMoments(b *testing.B) {
	s, err := New(baseConfig())
	if err != nil {
		b.Fatal(err)
	}
	if err := s.SetGaussian(10, 0, 2, 1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Moments()
	}
}
