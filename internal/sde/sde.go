// Package sde simulates the stochastic differential system that the
// paper's Fokker-Planck equation (Eq. 14) describes, as a particle
// (Monte-Carlo) ensemble:
//
//	dQ = v dt + σ dW        (reflected at Q = 0)
//	dv = g(Q, λ) dt         (v = λ − μ, so dλ = g dt)
//
// Equation 14,  f_t + v f_q + (g f)_v = (σ²/2) f_qq,  is exactly the
// forward Kolmogorov equation of this diffusion, so the empirical
// density of a large ensemble must match the PDE solution — that is
// experiment E9, the validation of the Fokker-Planck solver.
//
// The integrator is Euler-Maruyama with reflection at the q = 0
// boundary, which is the standard strong-order-1/2 scheme and entirely
// adequate for density-level comparisons.
//
// # Parallelism and determinism
//
// Particles live in flat structure-of-arrays storage sharded into
// fixed chunks of 4096. Each chunk owns a deterministic rng stream
// derived from the run seed by rng.Mix (via sweep.CellSeed), is
// initialized and stepped only from that stream, and chunks are
// stepped concurrently on the fixed-block fork-join pool of
// internal/parallel. Because the chunk boundaries and streams depend
// only on the particle count and the seed — never on the worker
// count — every observable is byte-identical for any Config.Workers.
// Within a step, a chunk's noise is drawn in one batch
// (rng.Source.FillNorm), in particle order, so each chunk consumes its
// stream exactly as a per-particle Norm loop would.
package sde

import (
	"fmt"
	"math"

	"fpcc/internal/control"
	"fpcc/internal/obs"
	"fpcc/internal/parallel"
	"fpcc/internal/rng"
	"fpcc/internal/stats"
	"fpcc/internal/sweep"
)

// chunkSize is the fixed shard width of the particle arrays; fixing
// it (rather than deriving it from the worker count) is what makes
// ensemble runs reproducible for any parallelism.
const chunkSize = 4096

// Config describes an ensemble simulation.
type Config struct {
	Law       control.Law // rate-control drift g(q, λ)
	Mu        float64     // service rate (v = λ − μ)
	Sigma     float64     // diffusion coefficient σ of the queue noise
	Particles int         // ensemble size
	Dt        float64     // Euler-Maruyama step
	Seed      uint64      // RNG seed (ensemble is reproducible)

	// Initial ensemble: Gaussian blob centred at (Q0, Lambda0) with
	// standard deviations InitStdQ, InitStdL (clipped to Q >= 0,
	// λ >= 0). Zero std means a point mass.
	Q0       float64
	Lambda0  float64
	InitStdQ float64
	InitStdL float64

	// Workers bounds the per-step parallelism (0 = GOMAXPROCS). It
	// affects wall-clock time only, never results: chunk streams and
	// reductions are fixed by Particles and Seed alone.
	Workers int

	// Obs, when non-nil, receives per-step probes (sde.meanq,
	// sde.meanlam, sde.varq) and, when it enables invariants, scans
	// the particle arrays for NaN/negative states and checks that the
	// moments are finite. Step has no error return, so the first
	// violation is latched and exposed through InvariantViolation
	// rather than aborting mid-step. The nil default costs one branch
	// per step and never changes any observable.
	Obs *obs.Recorder
}

// Validate checks the configuration. Every float must be finite: a
// NaN or infinite rate, step, noise level or initial state would
// poison every particle on the first step.
func (c *Config) Validate() error {
	switch {
	case c.Law == nil:
		return fmt.Errorf("sde: nil law")
	case !(c.Mu > 0) || math.IsInf(c.Mu, 1):
		return fmt.Errorf("sde: service rate must be positive and finite, got %v", c.Mu)
	case !finiteNonNeg(c.Sigma):
		return fmt.Errorf("sde: sigma must be finite and non-negative, got %v", c.Sigma)
	case c.Particles < 1:
		return fmt.Errorf("sde: need at least one particle, got %d", c.Particles)
	case !(c.Dt > 0) || math.IsInf(c.Dt, 1):
		return fmt.Errorf("sde: step must be positive and finite, got %v", c.Dt)
	case !finiteNonNeg(c.Q0) || !finiteNonNeg(c.Lambda0):
		return fmt.Errorf("sde: initial state must be finite and non-negative, got (%v, %v)", c.Q0, c.Lambda0)
	case !finiteNonNeg(c.InitStdQ) || !finiteNonNeg(c.InitStdL):
		return fmt.Errorf("sde: initial spread must be finite and non-negative, got (%v, %v)", c.InitStdQ, c.InitStdL)
	}
	return nil
}

// finiteNonNeg reports whether x is a finite number >= 0 (NaN fails).
func finiteNonNeg(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// Ensemble is a particle ensemble evolving under the SDE. Create one
// with New, advance it with Step/Run, and read it out with Moments,
// Histogram or the raw particle accessors.
type Ensemble struct {
	cfg     Config
	workers int
	q       []float64                    // flat SoA queue lengths
	lam     []float64                    // flat SoA rates
	streams []*rng.Source                // one deterministic stream per fixed chunk
	buf     *parallel.Scratch[[]float64] // per-worker chunk buffer: drift, then noise
	t       float64

	step   int64 // completed steps, stamping probes and violations
	invErr error // first latched invariant violation (Step has no error return)
}

// New creates an ensemble with the configured initial distribution.
// Every fixed 4096-wide chunk draws its initial states and all its
// noise from its own rng.Mix-derived stream, so the ensemble is
// reproducible from the seed alone and independent of Workers.
func New(cfg Config) (*Ensemble, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Particles
	e := &Ensemble{
		cfg:     cfg,
		workers: parallel.Workers(cfg.Workers),
		q:       make([]float64, n),
		lam:     make([]float64, n),
		streams: make([]*rng.Source, (n+chunkSize-1)/chunkSize),
	}
	e.buf = parallel.NewScratch(e.workers, func() []float64 { return make([]float64, chunkSize) })
	for c := range e.streams {
		r := rng.New(sweep.CellSeed(cfg.Seed, c))
		e.streams[c] = r
		lo := c * chunkSize
		hi := min(lo+chunkSize, n)
		for i := lo; i < hi; i++ {
			q := cfg.Q0
			l := cfg.Lambda0
			if cfg.InitStdQ > 0 {
				q += cfg.InitStdQ * r.Norm()
			}
			if cfg.InitStdL > 0 {
				l += cfg.InitStdL * r.Norm()
			}
			e.q[i] = math.Max(q, 0)
			e.lam[i] = math.Max(l, 0)
		}
	}
	return e, nil
}

// Time returns the current simulation time.
func (e *Ensemble) Time() float64 { return e.t }

// Step advances the whole ensemble by one Euler-Maruyama step.
// Chunks are stepped concurrently on up to the configured workers;
// the rate drift uses the law's batch fast path when it has one
// (control.DriftBatcher), falling back to per-particle Drift calls.
//
// Each chunk runs in three passes over one per-worker buffer: the
// drift is computed into it, consumed by the deterministic update,
// and then overwritten by the chunk's noise, drawn in one FillNorm
// batch and added in a last pass that also reflects. Every particle
// sees the same float operations in the same order as a single
// interleaved loop drawing one Norm per particle.
func (e *Ensemble) Step() {
	dt := e.cfg.Dt
	sqdt := math.Sqrt(dt)
	noise := e.cfg.Sigma * sqdt
	useNoise := e.cfg.Sigma > 0
	mu := e.cfg.Mu
	law := e.cfg.Law
	parallel.EachWorker(len(e.streams), e.workers, func(w, c int) {
		lo := c * chunkSize
		hi := min(lo+chunkSize, len(e.q))
		q := e.q[lo:hi]
		lam := e.lam[lo:hi]
		buf := e.buf.Get(w)[:len(q)]
		control.Drifts(law, q, lam, buf)
		for i, qi := range q {
			li := lam[i]
			v := li - mu
			d := v
			if qi <= 0 && v < 0 {
				d = 0 // empty queue cannot drain
			}
			qNew := qi + d*dt
			if !useNoise && qNew < 0 {
				qNew = -qNew // reflecting boundary at q = 0
			}
			lamNew := li + buf[i]*dt
			if lamNew < 0 {
				lamNew = 0
			}
			q[i] = qNew
			lam[i] = lamNew
		}
		if !useNoise {
			return
		}
		e.streams[c].FillNorm(buf)
		for i, z := range buf {
			qNew := q[i] + noise*z
			if qNew < 0 {
				qNew = -qNew // reflecting boundary at q = 0
			}
			q[i] = qNew
		}
	})
	e.t += dt
	e.step++
	if rec := e.cfg.Obs; rec.Enabled() {
		e.observe(rec)
	}
}

// observe feeds the attached recorder after a completed step. Moments
// is an O(N) pass, so it runs only when the probe series is due or
// the invariant checks need it.
func (e *Ensemble) observe(rec *obs.Recorder) {
	due := rec.ProbeDue("sde.meanq", e.t)
	check := rec.Invariants() && e.invErr == nil
	if !due && !check {
		return
	}
	m := e.Moments()
	if due {
		rec.Probe("sde.meanq", e.t, m.MeanQ)
		rec.Probe("sde.meanlam", e.t, m.MeanLam)
		rec.Probe("sde.varq", e.t, m.VarQ)
	}
	if check {
		e.invErr = e.checkInvariants(rec, m)
	}
}

// checkInvariants verifies the stepped state. Reflection and clamping
// keep every particle in q ≥ 0, λ ≥ 0; a violation means a law
// produced NaN or the state was corrupted. Finite particles can still
// be too large for their moments to be represented (a sum or square
// overflows), which poisons every observable the ensemble reports, so
// the moments must be finite too. Cov is bounded by the variances
// (Cauchy–Schwarz), so checking those covers it.
func (e *Ensemble) checkInvariants(rec *obs.Recorder, m EnsembleMoments) error {
	if err := rec.CheckNonNegative(e.step, e.t, "sde.q", e.q); err != nil {
		return err
	}
	if err := rec.CheckNonNegative(e.step, e.t, "sde.lambda", e.lam); err != nil {
		return err
	}
	for _, f := range [...]struct {
		field string
		v     float64
	}{{"sde.meanq", m.MeanQ}, {"sde.varq", m.VarQ}, {"sde.meanlam", m.MeanLam}, {"sde.varlam", m.VarLam}} {
		if err := rec.CheckFinite(e.step, e.t, f.field, f.v); err != nil {
			return err
		}
	}
	return nil
}

// InvariantViolation returns the first invariant violation latched by
// a stepped ensemble (nil when none, or when invariants are off).
// Step has no error return, so callers poll this after Run.
func (e *Ensemble) InvariantViolation() error { return e.invErr }

// Run advances the ensemble until time t (inclusive of the final
// partial step).
func (e *Ensemble) Run(t float64) {
	for e.t+e.cfg.Dt <= t {
		e.Step()
	}
	if rem := t - e.t; rem > 1e-12 {
		// One shortened step to land on t.
		saved := e.cfg.Dt
		e.cfg.Dt = rem
		e.Step()
		e.cfg.Dt = saved
	}
}

// EnsembleMoments summarizes the particle cloud.
type EnsembleMoments struct {
	MeanQ, VarQ     float64
	MeanLam, VarLam float64
	Cov             float64 // covariance of (q, λ)
}

// Moments returns the ensemble moments.
func (e *Ensemble) Moments() EnsembleMoments {
	n := float64(len(e.q))
	var mq, ml float64
	for i := range e.q {
		mq += e.q[i]
		ml += e.lam[i]
	}
	mq /= n
	ml /= n
	var vq, vl, cov float64
	for i := range e.q {
		dq := e.q[i] - mq
		dl := e.lam[i] - ml
		vq += dq * dq
		vl += dl * dl
		cov += dq * dl
	}
	return EnsembleMoments{
		MeanQ: mq, VarQ: vq / n,
		MeanLam: ml, VarLam: vl / n,
		Cov: cov / n,
	}
}

// QueueHistogram bins the particle queue lengths over [0, max) into
// the given number of bins.
func (e *Ensemble) QueueHistogram(max float64, bins int) (*stats.Histogram1D, error) {
	h, err := stats.NewHistogram1D(0, max, bins)
	if err != nil {
		return nil, err
	}
	for _, q := range e.q {
		h.Add(q)
	}
	return h, nil
}

// TailFraction returns the fraction of particles with q > b — the
// Monte-Carlo estimate of the buffer-overflow probability P(Q > b)
// that experiment E10 compares against the fluid model (which, being
// deterministic, reports 0 or 1).
func (e *Ensemble) TailFraction(b float64) float64 {
	var c int
	for _, q := range e.q {
		if q > b {
			c++
		}
	}
	return float64(c) / float64(len(e.q))
}
