package meanfield

import (
	"fmt"
	"math"

	"fpcc/internal/control"
	"fpcc/internal/linalg"
	"fpcc/internal/obs"
	"fpcc/internal/parallel"
	"fpcc/internal/rng"
	"fpcc/internal/stats"
	"fpcc/internal/sweep"
)

// chunkSize is the fixed shard width of the particle arrays. Fixing
// it (rather than deriving it from the worker count) is what makes
// particle runs byte-identical for any worker count: every chunk owns
// a deterministic rng stream and a fixed particle range, and only the
// scheduling of chunks — never their content — varies with workers.
const chunkSize = 4096

// chunk is one shard of a class's rate array: a sub-slice of the flat
// SoA storage, its own rng.Mix-derived random stream, and the partial
// reductions (rate sum, Welford moments) the coupling and the
// observables are assembled from without a second pass.
type chunk struct {
	class int
	lam   []float64 // sub-slice of the class's flat rate array
	r     *rng.Source
	sum   float64       // Σλ over the chunk, refreshed each step
	mom   stats.Moments // per-chunk Welford state, refreshed each step
}

// Particles is the finite-N Monte-Carlo backend: per-class flat
// []float64 rate arrays in structure-of-arrays layout, stepped in
// fixed-size chunks across a bounded worker pool. It simulates
// exactly the system whose N → ∞ limit Density solves:
//
//	dλ_i = g_k(Q(t−τ_k), λ_i) dt + σ_k dW_i   (reflected into [0, LMax])
//	dQ   = (Σ_k w_k Σ_{i∈k} λ_i − μ) dt       (reflected at 0)
//
// Each chunk draws from its own rng stream derived from the run seed
// by rng.Mix (via sweep.CellSeed), and all cross-chunk reductions are
// performed in chunk-index order, so results are reproducible from
// the seed alone and byte-identical for any worker count. Cost per
// step is O(N); practical up to N ≈ 10⁵ — beyond that, use Density.
type Particles struct {
	cfg     Config
	workers int
	lam     [][]float64 // per-class flat rate arrays
	chunks  []*chunk
	t       float64
	q       float64

	// Per-step state the chunk steps read: the queue each class
	// observes, a per-worker buffer (the observed-queue column, then
	// the noise, in its first half; the drifts in its second), and
	// the chunk step bound once so a step allocates nothing.
	qObs      []float64
	buf       *parallel.Scratch[[]float64]
	stepChunk func(w, i int)

	hist     History
	maxDelay float64
	step     int64 // completed steps, stamping probes and violations
}

// NewParticles builds the particle backend with every source's
// initial rate drawn from its class blob (clipped to [0, LMax]).
// workers bounds the per-step parallelism (0 = GOMAXPROCS at
// construction); it affects wall-clock time only, never results.
func NewParticles(cfg Config, seed uint64, workers int) (*Particles, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.open() {
		return nil, fmt.Errorf("meanfield: particle backend does not support open-system classes (Churn/Pulse); use the density backend, or netsim for finite-N churn")
	}
	p := &Particles{
		cfg:      cfg,
		workers:  parallel.Workers(workers),
		q:        cfg.Q0,
		qObs:     make([]float64, len(cfg.Classes)),
		maxDelay: cfg.maxDelay(),
	}
	p.buf = parallel.NewScratch(p.workers, func() []float64 { return make([]float64, 2*chunkSize) })
	p.stepChunk = p.runChunk
	for k, cl := range cfg.Classes {
		arr := make([]float64, cl.N)
		p.lam = append(p.lam, arr)
		for lo := 0; lo < cl.N; lo += chunkSize {
			hi := lo + chunkSize
			if hi > cl.N {
				hi = cl.N
			}
			c := &chunk{
				class: k,
				lam:   arr[lo:hi],
				r:     rng.New(sweep.CellSeed(seed, len(p.chunks))),
			}
			for i := range c.lam {
				l := cl.Lambda0
				if cl.InitStd > 0 {
					l += cl.InitStd * c.r.Norm()
				}
				c.lam[i] = clampRate(l, cfg.LMax)
			}
			c.reduce()
			p.chunks = append(p.chunks, c)
		}
	}
	p.hist.Record(0, p.q, 0)
	return p, nil
}

// clampRate reflects l into [0, max] (mirror reflection, matching the
// zero-flux ends of the density grid; far-out values are clamped).
func clampRate(l, max float64) float64 {
	if l < 0 {
		l = -l
	}
	if l > max {
		l = 2*max - l
	}
	if l < 0 {
		return 0
	}
	if l > max {
		return max
	}
	return l
}

// reduce refreshes the chunk's partial sums from its current rates.
func (c *chunk) reduce() {
	c.sum = 0
	c.mom = stats.Moments{}
	for _, l := range c.lam {
		c.sum += l
		c.mom.Add(l)
	}
}

// Time returns the current simulation time.
func (p *Particles) Time() float64 { return p.t }

// Queue returns the current queue length.
func (p *Particles) Queue() float64 { return p.q }

// NumClasses returns the number of classes.
func (p *Particles) NumClasses() int { return len(p.lam) }

// Rates returns class k's rate array (the live storage — callers must
// not modify it).
func (p *Particles) Rates(k int) []float64 { return p.lam[k] }

// ClassMoments returns the rate moments of class k, assembled by
// merging the per-chunk Welford accumulators (stats.Moments.Merge) in
// chunk order — no second pass over the particles.
func (p *Particles) ClassMoments(k int) stats.Moments {
	var m stats.Moments
	for _, c := range p.chunks {
		if c.class == k {
			m.Merge(c.mom)
		}
	}
	return m
}

// ClassMeanRate returns ⟨λ⟩_k, the mean per-source rate of class k.
func (p *Particles) ClassMeanRate(k int) float64 {
	m := p.ClassMoments(k)
	return m.Mean()
}

// AggregateRate returns the total arrival rate Λ = Σ_k w_k Σ_i λ_i,
// reduced from the per-chunk sums in chunk-index order so the value
// is bit-identical for any worker count.
func (p *Particles) AggregateRate() float64 {
	var agg float64
	for _, c := range p.chunks {
		agg += p.cfg.weight(c.class) * c.sum
	}
	return agg
}

// observedQueue returns the queue class k's controllers see now.
func (p *Particles) observedQueue(k int) float64 {
	if tau := p.cfg.Classes[k].Delay; tau > 0 {
		return p.hist.At(p.t - tau)
	}
	return p.q
}

// Step advances every particle and the queue by one Dt. Chunks are
// stepped concurrently on up to the configured workers; the results
// are independent of the worker count.
func (p *Particles) Step() error {
	agg := p.AggregateRate()
	dt := p.cfg.Dt
	for k := range p.cfg.Classes {
		p.qObs[k] = p.observedQueue(k)
	}
	parallel.EachWorker(len(p.chunks), p.workers, p.stepChunk)
	p.q = math.Max(p.q+(agg-p.cfg.Mu)*dt, 0)
	p.t += dt
	p.hist.Record(p.t, p.q, p.t-p.maxDelay-1)
	p.step++
	if rec := p.cfg.Obs; rec.Enabled() {
		if err := p.observe(rec); err != nil {
			return err
		}
	}
	return nil
}

// runChunk steps chunk i on worker w. Every particle's drift comes
// from one control.Drifts call and its noise from one rng.FillNorm;
// one pass then applies λ ← clamp(λ + g·dt + σ√dt·z) and accumulates
// the chunk's rate sum and moments. That is the arithmetic of a Drift
// call, a Norm call and a stats.Moments.Add per particle, in the same
// order; Add's recurrence runs on locals so its division chain
// overlaps the rate updates.
func (p *Particles) runChunk(w, i int) {
	c := p.chunks[i]
	cl := &p.cfg.Classes[c.class]
	dt := p.cfg.Dt
	lmax := p.cfg.LMax
	n := len(c.lam)
	buf := p.buf.Get(w)
	z, g := buf[:n], buf[chunkSize:chunkSize+n]
	linalg.Fill(z, p.qObs[c.class])
	control.Drifts(cl.Law, z, c.lam, g)
	noisy := cl.SigmaL > 0
	noise := cl.SigmaL * math.Sqrt(dt)
	if noisy {
		c.r.FillNorm(z)
	}
	sum := 0.0
	var count int
	var mean, m2, lo, hi float64
	for j, l := range c.lam {
		l += g[j] * dt
		if noisy {
			l += noise * z[j]
		}
		l = clampRate(l, lmax)
		c.lam[j] = l
		sum += l
		if count == 0 {
			lo, hi = l, l
		}
		if l < lo {
			lo = l
		}
		if l > hi {
			hi = l
		}
		count++
		d := l - mean
		mean += d / float64(count)
		m2 += d * (l - mean)
	}
	c.sum = sum
	c.mom = stats.MomentsOf(count, mean, m2, lo, hi)
}

// observe feeds the attached recorder after a completed step. The
// aggregate rate reuses the per-chunk sums the step just refreshed,
// so probes stay O(chunks); the invariant scan over every particle is
// O(N) and runs only when invariants are enabled.
func (p *Particles) observe(rec *obs.Recorder) error {
	if rec.ProbeDue("mfp.queue", p.t) {
		rec.Probe("mfp.queue", p.t, p.q)
		rec.Probe("mfp.lambda", p.t, p.AggregateRate())
	}
	if !rec.Invariants() {
		return nil
	}
	// clampRate reflects every particle into [0, LMax]; a violation
	// means a law produced NaN or the state was corrupted.
	for k, arr := range p.lam {
		name := "mfp." + p.cfg.ClassName(k) + ".rates"
		if err := rec.CheckNonNegative(p.step, p.t, name, arr); err != nil {
			return err
		}
	}
	if err := rec.CheckFinite(p.step, p.t, "mfp.queue", p.q); err != nil {
		return err
	}
	return rec.CheckMonotoneTail(p.step, "mfp.history", p.hist.TailTimes())
}

// Run advances until time tEnd on the same whole-step lattice as
// Engine.Run.
func (p *Particles) Run(tEnd float64) error {
	for p.t+p.cfg.Dt/2 <= tEnd {
		if err := p.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Histogram bins class k's rates over [0, LMax) into the given number
// of bins — the empirical counterpart of Density.Marginal.
func (p *Particles) Histogram(k, bins int) (*stats.Histogram1D, error) {
	h, err := stats.NewHistogram1D(0, p.cfg.LMax, bins)
	if err != nil {
		return nil, err
	}
	for _, l := range p.lam[k] {
		h.Add(l)
	}
	return h, nil
}
