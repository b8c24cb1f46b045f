package sde

import (
	"math"
	"testing"
	"testing/quick"

	"fpcc/internal/control"
)

func baseConfig() Config {
	return Config{
		Law:       control.AIMD{C0: 2, C1: 0.8, QHat: 20},
		Mu:        10,
		Sigma:     1,
		Particles: 2000,
		Dt:        1e-3,
		Seed:      1,
		Q0:        5,
		Lambda0:   8,
	}
}

func TestValidate(t *testing.T) {
	good := baseConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Law = nil },
		func(c *Config) { c.Mu = 0 },
		func(c *Config) { c.Sigma = -1 },
		func(c *Config) { c.Particles = 0 },
		func(c *Config) { c.Dt = 0 },
		func(c *Config) { c.Q0 = -1 },
		func(c *Config) { c.Lambda0 = -1 },
		func(c *Config) { c.InitStdQ = -1 },
	}
	for i, mut := range mutations {
		c := baseConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	run := func() EnsembleMoments {
		e, err := New(baseConfig())
		if err != nil {
			t.Fatal(err)
		}
		e.Run(5)
		return e.Moments()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed produced different moments: %+v vs %+v", a, b)
	}
}

// TestDeterministicAcrossWorkers pins the chunked-ensemble guarantee:
// the worker count schedules fixed chunks but never changes their
// streams, so every observable is bit-identical for any Workers.
func TestDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) (EnsembleMoments, float64) {
		cfg := baseConfig()
		cfg.Particles = 3*4096 + 17 // straddle several chunks plus a ragged tail
		cfg.Workers = workers
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.Run(3)
		return e.Moments(), e.TailFraction(5)
	}
	m1, t1 := run(1)
	for _, workers := range []int{2, 8} {
		mw, tw := run(workers)
		if m1 != mw || t1 != tw {
			t.Fatalf("workers=%d diverged: %+v/%v vs %+v/%v", workers, mw, tw, m1, t1)
		}
	}
}

// stepOracle is the reference Euler-Maruyama step Step must
// reproduce bit for bit: one interleaved pass per chunk that takes
// the batch drift, then draws each particle's noise with its own Norm
// call and reflects. It returns how many particles it reflected.
func stepOracle(e *Ensemble) (reflected int) {
	dt := e.cfg.Dt
	noise := e.cfg.Sigma * math.Sqrt(dt)
	drift := make([]float64, chunkSize)
	for c, r := range e.streams {
		lo := c * chunkSize
		hi := min(lo+chunkSize, len(e.q))
		q, lam := e.q[lo:hi], e.lam[lo:hi]
		control.Drifts(e.cfg.Law, q, lam, drift)
		for i, qi := range q {
			li := lam[i]
			v := li - e.cfg.Mu
			d := v
			if qi <= 0 && v < 0 {
				d = 0
			}
			qNew := qi + d*dt
			if e.cfg.Sigma > 0 {
				qNew += noise * r.Norm()
			}
			if qNew < 0 {
				qNew = -qNew
				reflected++
			}
			lamNew := li + drift[i]*dt
			if lamNew < 0 {
				lamNew = 0
			}
			q[i] = qNew
			lam[i] = lamNew
		}
	}
	e.t += dt
	return reflected
}

// TestStepMatchesOracle pins the batched step to the per-particle
// reference: 200 steps over a partial last chunk, with and without
// noise, at one and three workers. q̂ sits inside the cloud and the
// cloud starts near q = 0, so both AIMD arms, the empty-queue clamp
// and the reflection all run.
func TestStepMatchesOracle(t *testing.T) {
	for _, sigma := range []float64{2, 0} {
		for _, workers := range []int{1, 3} {
			cfg := baseConfig()
			cfg.Law = control.AIMD{C0: 2, C1: 0.8, QHat: 1.5}
			cfg.Particles = 2*chunkSize + 1809 // 10 001: the last chunk is partial
			cfg.Sigma = sigma
			cfg.Q0, cfg.InitStdQ = 1, 1.5
			cfg.Lambda0, cfg.InitStdL = 10, 2
			cfg.Dt = 0.01
			cfg.Workers = workers
			got, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var below, above bool
			reflected := 0
			for step := 0; step < 200; step++ {
				for i := range want.q {
					below = below || want.q[i] <= 1.5
					above = above || want.q[i] > 1.5
				}
				reflected += stepOracle(want)
				got.Step()
				for i := range got.q {
					if math.Float64bits(got.q[i]) != math.Float64bits(want.q[i]) ||
						math.Float64bits(got.lam[i]) != math.Float64bits(want.lam[i]) {
						t.Fatalf("sigma %v, workers %d, step %d, particle %d: Step (%v, %v), oracle (%v, %v)",
							sigma, workers, step, i, got.q[i], got.lam[i], want.q[i], want.lam[i])
					}
				}
			}
			if got.Time() != want.t {
				t.Fatalf("sigma %v, workers %d: time %v, oracle %v", sigma, workers, got.Time(), want.t)
			}
			if !below || !above || reflected == 0 {
				t.Fatalf("sigma %v, workers %d: coverage below q̂ %v, above q̂ %v, reflections %d",
					sigma, workers, below, above, reflected)
			}
		}
	}
}

func TestQueueNeverNegative(t *testing.T) {
	cfg := baseConfig()
	cfg.Sigma = 3 // strong noise to stress the reflection
	cfg.Q0 = 0.5
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2000; s++ {
		e.Step()
		for i := 0; i < e.Size(); i++ {
			q, lam := e.Particle(i)
			if q < 0 {
				t.Fatalf("negative queue %v at step %d", q, s)
			}
			if lam < 0 {
				t.Fatalf("negative rate %v at step %d", lam, s)
			}
		}
	}
}

// TestZeroNoiseFollowsCharacteristic: with σ = 0 and a point initial
// condition every particle follows the deterministic characteristic,
// so the ensemble mean converges to (q̂, μ) per Theorem 1 and the
// variance stays 0.
func TestZeroNoiseFollowsCharacteristic(t *testing.T) {
	cfg := baseConfig()
	cfg.Sigma = 0
	cfg.Particles = 16
	cfg.Q0, cfg.Lambda0 = 0, 2
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(600)
	m := e.Moments()
	if m.VarQ > 1e-12 || m.VarLam > 1e-12 {
		t.Fatalf("deterministic ensemble has spread: %+v", m)
	}
	if math.Abs(m.MeanQ-20) > 1 {
		t.Fatalf("mean queue %v, want near q̂ = 20", m.MeanQ)
	}
	if math.Abs(m.MeanLam-10) > 1 {
		t.Fatalf("mean rate %v, want near μ = 10", m.MeanLam)
	}
}

// TestNoiseCreatesSpread: positive σ must hold the stationary ensemble
// away from a point mass — the variability the paper says fluid models
// cannot capture.
func TestNoiseCreatesSpread(t *testing.T) {
	cfg := baseConfig()
	cfg.Sigma = 2
	cfg.Particles = 4000
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(300)
	m := e.Moments()
	if m.VarQ < 0.1 {
		t.Fatalf("queue variance %v, want clearly positive under noise", m.VarQ)
	}
	// The mean still hovers near the operating point.
	if math.Abs(m.MeanQ-20) > 5 {
		t.Fatalf("mean queue %v, want near 20", m.MeanQ)
	}
}

// TestPureDiffusionVariance: with a frozen rate λ = μ (no control,
// Custom law with zero drift) and the queue far from both boundaries,
// Var[Q] grows like σ²t — the textbook diffusion check.
func TestPureDiffusionVariance(t *testing.T) {
	cfg := Config{
		Law:       control.Custom{DriftFunc: func(q, lambda float64) float64 { return 0 }, QHat: 1e9},
		Mu:        10,
		Sigma:     1.5,
		Particles: 12000,
		Dt:        1e-3,
		Seed:      3,
		Q0:        1000, // far from the reflecting boundary
		Lambda0:   10,   // v = 0
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 4.0
	e.Run(horizon)
	m := e.Moments()
	want := cfg.Sigma * cfg.Sigma * horizon
	if math.Abs(m.VarQ-want)/want > 0.1 {
		t.Fatalf("Var[Q] = %v, want ~%v (σ²t)", m.VarQ, want)
	}
	if math.Abs(m.MeanQ-1000) > 0.5 {
		t.Fatalf("mean drifted to %v, want 1000", m.MeanQ)
	}
}

// TestReflectedDiffusionStationary: with λ frozen below μ the queue is
// a reflected Brownian motion with negative drift; its stationary
// density is exponential with mean σ²/(2|v|).
func TestReflectedDiffusionStationary(t *testing.T) {
	const sigma, muMinusLam = 2.0, 1.0
	cfg := Config{
		Law:       control.Custom{DriftFunc: func(q, lambda float64) float64 { return 0 }, QHat: 1e9},
		Mu:        10,
		Sigma:     sigma,
		Particles: 6000,
		Dt:        1e-3,
		Seed:      7,
		Q0:        1,
		Lambda0:   10 - muMinusLam,
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(50)
	m := e.Moments()
	want := sigma * sigma / (2 * muMinusLam)
	if math.Abs(m.MeanQ-want)/want > 0.1 {
		t.Fatalf("stationary mean %v, want ~%v (σ²/2|v|)", m.MeanQ, want)
	}
}

func TestRunLandsOnTime(t *testing.T) {
	cfg := baseConfig()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(1.2345)
	if math.Abs(e.Time()-1.2345) > 1e-9 {
		t.Fatalf("Time = %v, want 1.2345", e.Time())
	}
}

func TestHistograms(t *testing.T) {
	cfg := baseConfig()
	cfg.InitStdQ, cfg.InitStdL = 1, 1
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(2)
	h, err := e.QueueHistogram(100, 50)
	if err != nil {
		t.Fatal(err)
	}
	if h.Total() != cfg.Particles {
		t.Fatalf("histogram total %d, want %d", h.Total(), cfg.Particles)
	}
}

func TestTailFraction(t *testing.T) {
	cfg := baseConfig()
	cfg.Sigma = 0
	cfg.Particles = 10
	cfg.Q0 = 5
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.TailFraction(4); got != 1 {
		t.Fatalf("TailFraction(4) = %v, want 1", got)
	}
	if got := e.TailFraction(5); got != 0 {
		t.Fatalf("TailFraction(5) = %v, want 0 (strict >)", got)
	}
}

// Property: ensembles with different seeds have nearly identical
// moments at scale (law of large numbers sanity).
func TestSeedInsensitivityProperty(t *testing.T) {
	f := func(seedA, seedB uint8) bool {
		if seedA == seedB {
			return true
		}
		run := func(seed uint64) float64 {
			cfg := baseConfig()
			cfg.Seed = seed
			cfg.Particles = 2000
			cfg.Dt = 2e-3
			e, err := New(cfg)
			if err != nil {
				return math.NaN()
			}
			e.Run(40)
			return e.Moments().MeanQ
		}
		a, b := run(uint64(seedA)), run(uint64(seedB))
		return math.Abs(a-b) < 1.5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEnsembleStep(b *testing.B) {
	cfg := baseConfig()
	cfg.Particles = 10000
	e, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
