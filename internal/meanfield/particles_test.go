package meanfield

import (
	"math"
	"testing"

	"fpcc/internal/parallel"
	"fpcc/internal/stats"
)

// runParticles advances a fresh particle system and returns its queue
// trajectory (one sample per step) plus the final class moments.
func runParticles(t *testing.T, n int, seed uint64, workers, steps int) ([]float64, []float64) {
	t.Helper()
	p, err := NewParticles(testConfig(n), seed, workers)
	if err != nil {
		t.Fatal(err)
	}
	traj := make([]float64, 0, steps)
	for i := 0; i < steps; i++ {
		if err := p.Step(); err != nil {
			t.Fatal(err)
		}
		traj = append(traj, p.Queue())
	}
	m := p.ClassMoments(0)
	return traj, []float64{m.Mean(), m.Variance(), m.Min(), m.Max()}
}

// The worker count shards the fixed-size chunks differently across
// goroutines but must never change a single bit of the results: every
// chunk owns its rng.Mix-derived stream and all reductions run in
// chunk-index order.
func TestParticlesDeterministicAcrossWorkers(t *testing.T) {
	const n = 10000 // 3 chunks of 4096
	t1, m1 := runParticles(t, n, 99, 1, 300)
	t8, m8 := runParticles(t, n, 99, 8, 300)
	for i := range t1 {
		if t1[i] != t8[i] {
			t.Fatalf("queue trajectory diverges at step %d: %v vs %v (workers 1 vs 8)", i, t1[i], t8[i])
		}
	}
	for i := range m1 {
		if m1[i] != m8[i] {
			t.Fatalf("class moments differ between worker counts: %v vs %v", m1, m8)
		}
	}
}

// Same seed reproduces the run exactly; a different seed must not.
func TestParticlesSeedReproducibility(t *testing.T) {
	a, _ := runParticles(t, 5000, 7, 4, 200)
	b, _ := runParticles(t, 5000, 7, 2, 200)
	c, _ := runParticles(t, 5000, 8, 4, 200)
	same, diff := true, false
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
		if a[i] != c[i] {
			diff = true
		}
	}
	if !same {
		t.Error("same seed did not reproduce the queue trajectory")
	}
	if !diff {
		t.Error("different seeds produced identical trajectories")
	}
}

// Particle moments merged from the per-chunk Welford states must
// match a direct pass over the flat rate array.
func TestParticlesChunkedMomentsMatchDirect(t *testing.T) {
	p, err := NewParticles(testConfig(9000), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(2); err != nil {
		t.Fatal(err)
	}
	m := p.ClassMoments(0)
	rates := p.lam[0]
	if m.Count() != len(rates) {
		t.Fatalf("moment count %d != %d particles", m.Count(), len(rates))
	}
	var sum float64
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, l := range rates {
		sum += l
		lo = math.Min(lo, l)
		hi = math.Max(hi, l)
	}
	mean := sum / float64(len(rates))
	var ss float64
	for _, l := range rates {
		ss += (l - mean) * (l - mean)
	}
	if math.Abs(m.Mean()-mean) > 1e-12 {
		t.Errorf("merged mean %v != direct %v", m.Mean(), mean)
	}
	if math.Abs(m.Variance()-ss/float64(len(rates))) > 1e-9 {
		t.Errorf("merged variance %v != direct %v", m.Variance(), ss/float64(len(rates)))
	}
	if m.Min() != lo || m.Max() != hi {
		t.Errorf("merged min/max %v/%v != direct %v/%v", m.Min(), m.Max(), lo, hi)
	}
}

// Rates must stay inside [0, LMax] under drift and reflection.
func TestParticlesRatesStayInDomain(t *testing.T) {
	cfg := testConfig(2000)
	cfg.Classes[0].SigmaL = 1.5 // strong noise exercises both reflections
	p, err := NewParticles(cfg, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(5); err != nil {
		t.Fatal(err)
	}
	for _, l := range p.lam[0] {
		if l < 0 || l > cfg.LMax {
			t.Fatalf("rate %v escaped [0, %v]", l, cfg.LMax)
		}
	}
	h, err := p.Histogram(0, 40)
	if err != nil {
		t.Fatal(err)
	}
	if h.Underflow != 0 || h.Overflow != 0 {
		t.Fatalf("histogram under/overflow %d/%d, want 0/0", h.Underflow, h.Overflow)
	}
}

// stepOracle is Particles.Step as it was before the batched drift and
// noise: one Drift call, one Norm call and one Moments.Add per
// particle, on a fresh closure and qObs slice each step. Step must
// reproduce it bit for bit.
func stepOracle(p *Particles) error {
	agg := p.AggregateRate()
	dt := p.cfg.Dt
	sqdt := math.Sqrt(dt)
	qObs := make([]float64, len(p.cfg.Classes))
	for k := range p.cfg.Classes {
		qObs[k] = p.observedQueue(k)
	}
	parallel.EachWorker(len(p.chunks), p.workers, func(_, i int) {
		c := p.chunks[i]
		cl := &p.cfg.Classes[c.class]
		law := cl.Law
		qo := qObs[c.class]
		sum := 0.0
		mom := stats.Moments{}
		for j, l := range c.lam {
			l += law.Drift(qo, l) * dt
			if cl.SigmaL > 0 {
				l += cl.SigmaL * sqdt * c.r.Norm()
			}
			l = clampRate(l, p.cfg.LMax)
			c.lam[j] = l
			sum += l
			mom.Add(l)
		}
		c.sum = sum
		c.mom = mom
	})
	p.q = math.Max(p.q+(agg-p.cfg.Mu)*dt, 0)
	p.t += dt
	p.hist.Record(p.t, p.q, p.t-p.maxDelay-1)
	p.step++
	if rec := p.cfg.Obs; rec.Enabled() {
		return p.observe(rec)
	}
	return nil
}

// TestParticlesStepMatchesOracle pins the batched Step to stepOracle
// bit for bit over 200 steps: every rate, chunk sum and chunk Welford
// state, the queue and the time. The populations end on a partial
// chunk (10000 = 2·4096 + 1808), and the configurations cover a noisy
// class, a noise-free one, and both side by side with a delayed
// observation, at one and three workers.
func TestParticlesStepMatchesOracle(t *testing.T) {
	noisy := testConfig(10_000)
	quiet := testConfig(10_000)
	quiet.Classes[0].SigmaL = 0
	mixed := testConfig(10_000)
	mixed.Classes = append(mixed.Classes, Class{
		Law: testLaw(10_000, 2), N: 5000, Delay: 0.05, Lambda0: 0.8, InitStd: 0.2,
	})
	mixed.Mu *= 1.5
	for name, cfg := range map[string]Config{"sigma>0": noisy, "sigma=0": quiet, "mixed": mixed} {
		for _, workers := range []int{1, 3} {
			p, err := NewParticles(cfg, 21, workers)
			if err != nil {
				t.Fatal(err)
			}
			want, err := NewParticles(cfg, 21, workers)
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 200; step++ {
				if err := p.Step(); err != nil {
					t.Fatal(err)
				}
				if err := stepOracle(want); err != nil {
					t.Fatal(err)
				}
				if p.q != want.q || p.t != want.t {
					t.Fatalf("%s workers=%d step %d: q, t = %v, %v; oracle %v, %v", name, workers, step, p.q, p.t, want.q, want.t)
				}
				for i, c := range p.chunks {
					o := want.chunks[i]
					if c.sum != o.sum || c.mom != o.mom {
						t.Fatalf("%s workers=%d step %d chunk %d: sum/moments differ from the oracle", name, workers, step, i)
					}
					for j := range c.lam {
						if math.Float64bits(c.lam[j]) != math.Float64bits(o.lam[j]) {
							t.Fatalf("%s workers=%d step %d chunk %d: rate %d = %v, oracle %v", name, workers, step, i, j, c.lam[j], o.lam[j])
						}
					}
				}
			}
		}
	}
}

// TestParticlesStepAllocatesNothing pins the serial step at zero
// allocations once the queue history has reached its pruned size.
func TestParticlesStepAllocatesNothing(t *testing.T) {
	p, err := NewParticles(testConfig(5000), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	warmHistory(t, p)
	if a := testing.AllocsPerRun(50, func() { _ = p.Step() }); a != 0 {
		t.Errorf("Particles.Step at workers=1: %v allocs per step, want 0", a)
	}
}

// warmHistory steps s past the queue history's first prune (8192
// samples), after which Record appends within the capacity it has.
func warmHistory(t *testing.T, s Stepper) {
	t.Helper()
	for i := 0; i < 8300; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
}
