package meanfield

import (
	"math"
	"testing"

	"fpcc/internal/control"
)

// testLaw returns the per-source AIMD law of the canonical scaled
// scenario: per-source service share 1, total queue target qhat0·n.
func testLaw(n int, qhat0 float64) control.AIMD {
	return control.AIMD{C0: 0.5, C1: 0.5, QHat: qhat0 * float64(n)}
}

// testConfig is the single-class scenario both backends are validated
// on: n sources with unit service share, total target 2n.
func testConfig(n int) Config {
	return Config{
		Classes: []Class{{
			Law: testLaw(n, 2), N: n, Lambda0: 1, InitStd: 0.3, SigmaL: 0.3,
		}},
		Mu: float64(n), LMax: 4, Bins: 160, Dt: 0.01, Q0: 2 * float64(n),
	}
}

func TestConfigValidate(t *testing.T) {
	good := testConfig(100)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"no classes", func(c *Config) { c.Classes = nil }},
		{"nil law", func(c *Config) { c.Classes[0].Law = nil }},
		{"zero population", func(c *Config) { c.Classes[0].N = 0 }},
		{"negative weight", func(c *Config) { c.Classes[0].Weight = -1 }},
		{"negative delay", func(c *Config) { c.Classes[0].Delay = -0.1 }},
		{"initial rate above LMax", func(c *Config) { c.Classes[0].Lambda0 = 5 }},
		{"negative spread", func(c *Config) { c.Classes[0].InitStd = -1 }},
		{"negative sigma", func(c *Config) { c.Classes[0].SigmaL = -1 }},
		{"non-positive mu", func(c *Config) { c.Mu = 0 }},
		{"non-positive LMax", func(c *Config) { c.LMax = 0 }},
		{"too few bins", func(c *Config) { c.Bins = 4 }},
		{"non-positive dt", func(c *Config) { c.Dt = 0 }},
		{"negative queue", func(c *Config) { c.Q0 = -1 }},
		{"NaN queue", func(c *Config) { c.Q0 = math.NaN() }},
		{"NaN initial rate", func(c *Config) { c.Classes[0].Lambda0 = math.NaN() }},
		{"NaN weight", func(c *Config) { c.Classes[0].Weight = math.NaN() }},
		{"NaN delay", func(c *Config) { c.Classes[0].Delay = math.NaN() }},
		{"NaN spread", func(c *Config) { c.Classes[0].InitStd = math.NaN() }},
		{"NaN sigma", func(c *Config) { c.Classes[0].SigmaL = math.NaN() }},
		{"+Inf sigma", func(c *Config) { c.Classes[0].SigmaL = math.Inf(1) }},
		{"+Inf weight", func(c *Config) { c.Classes[0].Weight = math.Inf(1) }},
		{"+Inf queue", func(c *Config) { c.Q0 = math.Inf(1) }},
		{"+Inf dt", func(c *Config) { c.Dt = math.Inf(1) }},
		{"+Inf delay", func(c *Config) { c.Classes[0].Delay = math.Inf(1) }},
		{"+Inf spread", func(c *Config) { c.Classes[0].InitStd = math.Inf(1) }},
		{"empty route", func(c *Config) { c.Classes[0].Route = []int{} }},
		{"route off the bottleneck", func(c *Config) { c.Classes[0].Route = []int{1} }},
	}
	for _, tc := range cases {
		cfg := testConfig(100)
		cfg.Classes = append([]Class(nil), cfg.Classes...)
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
		}
	}
}

func TestConfigHelpers(t *testing.T) {
	cfg := Config{Classes: []Class{
		{Name: "fast", N: 30, Weight: 2},
		{N: 70},
	}}
	if got := cfg.TotalSources(); got != 100 {
		t.Errorf("TotalSources = %d, want 100", got)
	}
	if got := cfg.ClassName(0); got != "fast" {
		t.Errorf("ClassName(0) = %q", got)
	}
	if got := cfg.ClassName(1); got != "class1" {
		t.Errorf("ClassName(1) = %q, want default", got)
	}
	if got := cfg.weight(0); got != 2 {
		t.Errorf("weight(0) = %v, want 2", got)
	}
	if got := cfg.weight(1); got != 1 {
		t.Errorf("weight(1) = %v, want 1 (default)", got)
	}
}

func TestQHistoryInterpolation(t *testing.T) {
	var h History
	if got := h.At(1); got != 0 {
		t.Fatalf("empty history at(1) = %v, want 0", got)
	}
	h.Record(0, 10, 0)
	h.Record(1, 20, 0)
	h.Record(2, 0, 0)
	for _, tc := range []struct{ t, want float64 }{
		{-1, 10}, {0, 10}, {0.5, 15}, {1, 20}, {1.75, 5}, {2, 0}, {3, 0},
	} {
		if got := h.At(tc.t); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("at(%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
}

// TestDensityBitIdenticalAcrossWorkers pins the new class-parallel
// step: a multi-class run must produce bit-identical marginals and
// queue for any Config.Workers.
func TestDensityBitIdenticalAcrossWorkers(t *testing.T) {
	run := func(workers int) (*Density, error) {
		cfg := testConfig(1000)
		// Three classes with different dynamics so scheduling skew
		// would have something to scramble.
		cfg.Classes = []Class{
			{Law: testLaw(400, 2), N: 400, Lambda0: 1, InitStd: 0.3, SigmaL: 0.3},
			{Law: testLaw(300, 2), N: 300, Lambda0: 1.4, InitStd: 0.2, SigmaL: 0.5, Delay: 0.3},
			{Law: testLaw(300, 2), N: 300, Lambda0: 0.7, InitStd: 0.4, SigmaL: 0.2, Weight: 2},
		}
		cfg.Workers = workers
		d, err := NewDensity(cfg)
		if err != nil {
			return nil, err
		}
		return d, d.Run(5)
	}
	d1, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		dw, err := run(workers)
		if err != nil {
			t.Fatal(err)
		}
		if dw.Queue() != d1.Queue() {
			t.Fatalf("workers=%d: queue %v, workers=1 got %v", workers, dw.Queue(), d1.Queue())
		}
		for k := 0; k < d1.NumClasses(); k++ {
			m1, mw := d1.Marginal(k), dw.Marginal(k)
			for i := range m1 {
				if m1[i] != mw[i] {
					t.Fatalf("workers=%d: class %d marginal[%d] = %v, workers=1 got %v",
						workers, k, i, mw[i], m1[i])
				}
			}
		}
	}
}

// Transport has zero-flux ends and the diffusion solve is
// conservative, so each class's mass must stay at 1 up to the tracked
// negativity clipping.
func TestDensityMassConservation(t *testing.T) {
	for _, second := range []bool{false, true} {
		cfg := testConfig(1000)
		cfg.SecondOrder = second
		d, err := NewDensity(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Run(20); err != nil {
			t.Fatal(err)
		}
		m := d.Marginal(0)
		mass := 0.0
		for _, v := range m {
			mass += v
		}
		mass *= d.RateGrid().Dx
		// Zeroing negative undershoots adds mass, so the exact budget
		// is mass = 1 + clipped.
		if math.Abs(mass-d.ClippedMass()-1) > 1e-8 {
			t.Errorf("secondOrder=%v: mass %.12f - clipped %.3g != 1", second, mass, d.ClippedMass())
		}
	}
}

// Without delay the mean-field AIMD population must settle at the
// operating point: time-averaged queue near the target and
// time-averaged per-source rate near the fair share μ/N (Theorem 1's
// limit point, reached by the aggregate dynamics).
func TestDensitySteadyState(t *testing.T) {
	const n = 1_000_000 // cost is independent of N — run the headline size
	cfg := testConfig(n)
	cfg.SecondOrder = true
	d, err := NewDensity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(30); err != nil {
		t.Fatal(err)
	}
	var qSum, rSum float64
	var cnt int
	for d.Time() < 60 {
		if err := d.Step(); err != nil {
			t.Fatal(err)
		}
		qSum += d.Queue()
		rSum += d.ClassMeanRate(0)
		cnt++
	}
	qAvg := qSum / float64(cnt) / n
	rAvg := rSum / float64(cnt)
	if math.Abs(qAvg-2) > 0.02*2 {
		t.Errorf("steady per-source queue %.4f, want 2 within 2%%", qAvg)
	}
	if math.Abs(rAvg-1) > 0.05 {
		t.Errorf("steady per-source rate %.4f, want 1 within 5%%", rAvg)
	}
}

// Feedback delay must destabilize the operating point into a limit
// cycle (Section 7): the queue's late-time swing with τ > 0 has to
// dwarf the zero-delay swing.
func TestDensityDelayOscillation(t *testing.T) {
	swing := func(delay float64) float64 {
		cfg := testConfig(10000)
		cfg.Classes[0].Delay = delay
		d, err := NewDensity(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Run(40); err != nil {
			t.Fatal(err)
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for d.Time() < 80 {
			if err := d.Step(); err != nil {
				t.Fatal(err)
			}
			lo = math.Min(lo, d.Queue())
			hi = math.Max(hi, d.Queue())
		}
		return (hi - lo) / 10000
	}
	s0, s1 := swing(0), swing(1.0)
	if s1 < 4*s0 {
		t.Errorf("delay swing %.4f not ≫ zero-delay swing %.4f", s1, s0)
	}
}

func TestDensityCFLViolation(t *testing.T) {
	cfg := testConfig(100)
	cfg.Dt = 1 // |g|·Dt/Δλ = 2·1/0.025 = 80 ≫ 1
	d, err := NewDensity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := d.Marginal(0)
	err = d.Step()
	if err == nil {
		t.Fatal("CFL-violating step accepted")
	}
	// The message names the first violating edge, its λ and |c|,
	// exactly as a per-edge scan reports it.
	ref, rerr := NewRateDensity(cfg.LMax, cfg.Bins, 1, 0.3, false)
	if rerr != nil {
		t.Fatal(rerr)
	}
	want := setDriftOracle(ref, cfg.Classes[0].Law, cfg.Q0, cfg.Dt)
	if want == nil || err.Error() != "meanfield: class 0 "+want.Error() {
		t.Errorf("CFL error %q, want %q", err, want)
	}
	// The check runs before any mutation: a failing Step must leave
	// the solver exactly as it was.
	after := d.Marginal(0)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("failed Step mutated the density at bin %d: %v -> %v", i, before[i], after[i])
		}
	}
	if d.Time() != 0 || d.Queue() != cfg.Q0 {
		t.Fatalf("failed Step advanced time/queue: t=%v q=%v", d.Time(), d.Queue())
	}
}

// TestDensityCFLViolationInLaterClass: class 1's law is CFL-safe
// while the queue sits below its target and violates the bound above
// it. The step on which the queue first crosses has class 0 pass its
// check and class 1 fail; it must leave every class's density, the
// queue and the time as they were, and name class 1's first
// violating edge.
func TestDensityCFLViolationInLaterClass(t *testing.T) {
	cfg := testConfig(100)
	fast := control.AIMD{C0: 0.5, C1: 40, QHat: 205} // |g| = 40λ above q̂: violates for λ > 0.06
	cfg.Classes = append(cfg.Classes, Class{Law: fast, N: 100, Lambda0: 1, InitStd: 0.3})
	cfg.Mu = 200
	d, err := NewDensity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 2000; step++ {
		before := [][]float64{d.Marginal(0), d.Marginal(1)}
		tb, qb := d.Time(), d.Queue()
		err = d.Step()
		if err == nil {
			continue
		}
		if step == 0 {
			t.Fatal("the first step already violates; the test wants clean steps before it")
		}
		ref, rerr := NewRateDensity(cfg.LMax, cfg.Bins, 1, 0.3, false)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if want := setDriftOracle(ref, fast, qb, cfg.Dt); want == nil || err.Error() != "meanfield: class 1 "+want.Error() {
			t.Errorf("CFL error %q, want class 1's %v", err, want)
		}
		for k, m := range before {
			for i, v := range d.Marginal(k) {
				if math.Float64bits(v) != math.Float64bits(m[i]) {
					t.Fatalf("failed Step mutated class %d at bin %d: %v -> %v", k, i, m[i], v)
				}
			}
		}
		if d.Time() != tb || d.Queue() != qb {
			t.Fatalf("failed Step moved time/queue: t %v -> %v, q %v -> %v", tb, d.Time(), qb, d.Queue())
		}
		if d.kerns[0].ph[0].Courant() == 0 {
			t.Error("class 0 was not checked before class 1 failed")
		}
		return
	}
	t.Fatal("the queue never crossed class 1's target")
}

// Heterogeneous weights: a class of weight 2 contributes twice its
// rate sum to the aggregate.
func TestAggregateRateWeights(t *testing.T) {
	cfg := Config{
		Classes: []Class{
			{Law: testLaw(100, 2), N: 60, Lambda0: 1, Weight: 2},
			{Law: testLaw(100, 2), N: 40, Lambda0: 1},
		},
		Mu: 100, LMax: 4, Bins: 32, Dt: 0.01,
	}
	d, err := NewDensity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Point masses at the cell containing λ=1.
	cell := d.RateGrid().Center(d.RateGrid().CellOf(1))
	want := 2*60*cell + 40*cell
	if got := d.AggregateRate(); math.Abs(got-want) > 1e-9*want {
		t.Errorf("AggregateRate = %v, want %v", got, want)
	}
	p, err := NewParticles(cfg, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantP := 2*60*1.0 + 40*1.0
	if got := p.AggregateRate(); math.Abs(got-wantP) > 1e-9*wantP {
		t.Errorf("particle AggregateRate = %v, want %v", got, wantP)
	}
}
