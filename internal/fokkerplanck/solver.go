// Package fokkerplanck numerically solves the paper's central object,
// the extended Fokker-Planck equation of Section 4 (Equation 14):
//
//	f_t + v·f_q + (g·f)_v = (σ²/2)·f_qq
//
// for the joint probability density f(t, q, v) of queue length Q(t)
// and queue growth rate v(t) = λ(t) − μ under the feedback control
// law dλ/dt = g(Q, λ).
//
// # Scheme
//
// The solver uses operator splitting on a uniform cell-centered
// (q, v) grid:
//
//  1. q-advection  f_t + v f_q = 0        — conservative first-order
//     upwind per v-row; zero-flux (reflecting) at q = 0, outflow at
//     q = QMax (lost mass is tracked, so domain truncation is visible
//     rather than silent).
//  2. v-advection  f_t + (g f)_v = 0      — conservative upwind with
//     edge-evaluated drift g; zero-flux at both v boundaries. For the
//     paper's laws the drift field is naturally confining (+C0 at the
//     bottom, −C1·λ at the top), so no mass is pushed against the
//     clamp in practice.
//  3. q-diffusion  f_t = (σ²/2) f_qq      — Crank-Nicolson with
//     zero-flux (Neumann) boundaries, one tridiagonal solve per
//     v-row; unconditionally stable.
//
// Advection steps are explicit, so Step enforces the CFL condition;
// Advance picks the largest stable step. Upwinding can produce tiny
// negative undershoots at steep fronts; they are clipped and the
// clipped mass tracked in the audit.
//
// # Hot-path layout and parallelism
//
// The density is row-major [iq*NV + iv], so v-rows are contiguous.
// Every sweep — including the q-direction ones — walks the field in
// that storage order: the q-advection updates whole v-rows from the
// neighboring source rows, and the q-diffusion runs all NV
// Crank-Nicolson systems simultaneously as a multi-RHS Thomas solve
// whose forward and back substitutions stream across rows with unit
// stride (no strided per-column gathers). The tridiagonal bands are
// identical for every column and depend only on the step size, so
// they are factored once and reused (diffFactor).
//
// The advection sweeps ping-pong between two field buffers instead of
// copying. The law and grid are immutable, so New computes the v-edge
// drift table g(q, v_edge + μ) once, in the same scan that bounds the
// CFL speeds.
//
// All sweeps shard their independent rows (or column blocks) across
// the fixed-block fork-join pool of internal/parallel, bounded by
// Config.Workers. The block partition never depends on the worker
// count, so the solution is bit-identical for any Workers setting.
package fokkerplanck

import (
	"fmt"
	"math"

	"fpcc/internal/control"
	"fpcc/internal/grid"
	"fpcc/internal/linalg"
	"fpcc/internal/obs"
	"fpcc/internal/parallel"
)

// Config describes a Fokker-Planck problem and its discretization.
type Config struct {
	Law   control.Law // feedback law g(q, λ)
	Mu    float64     // service rate (v = λ − μ)
	Sigma float64     // noise amplitude σ (diffusion coefficient σ²/2)

	QMax float64 // domain is q ∈ [0, QMax]
	NQ   int     // number of q cells
	VMin float64 // domain is v ∈ [VMin, VMax]
	VMax float64
	NV   int // number of v cells

	// SecondOrder selects the MUSCL/minmod (TVD) advection sweeps
	// instead of first-order upwind, removing most of the numerical
	// diffusion at the cost of ~2x work per step (see muscl.go and
	// the scheme-comparison benchmarks).
	SecondOrder bool

	// Workers bounds the intra-step parallelism of the sweeps
	// (0 = GOMAXPROCS). It affects wall-clock time only, never
	// results: the sweep partitioning is fixed by the grid alone.
	Workers int

	// Obs, when non-nil, receives per-step probes (fp.mass, fp.meanq,
	// fp.clipped, fp.outflow, fp.cfl) and, when it enables invariants,
	// runs the per-step checks: mass budget ∫f = 1 + clipped − outflow,
	// density non-negativity and CFL margin. A failing check aborts
	// Step with a step-stamped error. The nil default costs one branch
	// per step and never changes any observable.
	Obs *obs.Recorder
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	switch {
	case c.Law == nil:
		return fmt.Errorf("fokkerplanck: nil law")
	case !(c.Mu > 0) || math.IsInf(c.Mu, 1):
		return fmt.Errorf("fokkerplanck: service rate must be finite and positive, got %v", c.Mu)
	case !(c.Sigma >= 0) || math.IsInf(c.Sigma*c.Sigma, 1):
		return fmt.Errorf("fokkerplanck: sigma must be non-negative with a finite square (the diffusion coefficient), got %v", c.Sigma)
	case !(c.QMax > 0) || math.IsInf(c.QMax*c.QMax, 1):
		return fmt.Errorf("fokkerplanck: QMax must be positive with a finite square (the variance bound), got %v", c.QMax)
	case c.NQ < 4 || c.NV < 4:
		return fmt.Errorf("fokkerplanck: need at least 4 cells per axis, got %dx%d", c.NQ, c.NV)
	case !(c.VMax > c.VMin) || math.IsInf((c.VMax-c.VMin)*(c.VMax-c.VMin), 1):
		return fmt.Errorf("fokkerplanck: v range [%v, %v] must be non-empty with a finite squared width", c.VMin, c.VMax)
	}
	return nil
}

// Moments are the low-order moments of the current density.
type Moments struct {
	Mass  float64 // ∫ f  (should stay near 1 minus tracked losses)
	MeanQ float64
	VarQ  float64
	MeanV float64
	VarV  float64
	Cov   float64
}

// Solver evolves the density. Create with New, set the initial
// condition, then Step/Advance.
type Solver struct {
	cfg     Config
	g2d     grid.Uniform2D // X = q (slow index), Y = v
	workers int
	f       []float64 // density, row-major [iq*NV + iv]
	tmp     []float64 // ping-pong / multi-RHS scratch field
	t       float64

	// cached CFL speed bounds (the law and grid are immutable)
	maxV, maxG float64

	// prefactored Crank-Nicolson system of the q-diffusion (the bands
	// depend only on the step size)
	qFac linalg.CNFactor

	// cq holds the per-row Courant numbers of the current q-sweep.
	cq []float64 // length NV

	// cached cell-center coordinates
	qc, vc []float64

	// v-edge drifts g(q_iq, v_edge + μ), [iq*(NV+1) + e]; the law and
	// grid are immutable, so New fills them once
	edgeDrift []float64

	clipped float64 // total negative mass clipped (absolute value)
	outflow float64 // mass lost through the q = QMax outflow boundary

	step int64 // completed steps, stamping probes and violations
}

// New builds a solver with an all-zero density (call SetGaussian
// next).
func New(cfg Config) (*Solver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	qAxis, err := grid.NewUniform1D(0, cfg.QMax, cfg.NQ)
	if err != nil {
		return nil, fmt.Errorf("fokkerplanck: q axis: %w", err)
	}
	vAxis, err := grid.NewUniform1D(cfg.VMin, cfg.VMax, cfg.NV)
	if err != nil {
		return nil, fmt.Errorf("fokkerplanck: v axis: %w", err)
	}
	g2d := grid.NewUniform2D(qAxis, vAxis)
	s := &Solver{
		cfg:       cfg,
		g2d:       g2d,
		workers:   parallel.Workers(cfg.Workers),
		f:         g2d.NewField(),
		tmp:       g2d.NewField(),
		cq:        make([]float64, cfg.NV),
		qc:        qAxis.Centers(),
		vc:        vAxis.Centers(),
		edgeDrift: make([]float64, cfg.NQ*(cfg.NV+1)),
	}
	if s.maxV, s.maxG, err = s.computeMaxSpeeds(); err != nil {
		return nil, err
	}
	return s, nil
}

// Grid returns the discretization (X axis = q, Y axis = v).
func (s *Solver) Grid() grid.Uniform2D { return s.g2d }

// Time returns the current solution time.
func (s *Solver) Time() float64 { return s.t }

// ClippedMass returns the total mass removed by negativity clipping.
func (s *Solver) ClippedMass() float64 { return s.clipped }

// OutflowMass returns the mass lost through the q = QMax boundary; a
// non-negligible value means the domain is too small for the problem.
func (s *Solver) OutflowMass() float64 { return s.outflow }

// SetGaussian initializes the density with a truncated Gaussian blob
// centred at (q0, v0) with standard deviations (stdQ, stdV),
// normalized to unit mass on the grid.
func (s *Solver) SetGaussian(q0, v0, stdQ, stdV float64) error {
	if !(stdQ > 0) || !(stdV > 0) {
		return fmt.Errorf("fokkerplanck: Gaussian needs positive spreads, got (%v, %v)", stdQ, stdV)
	}
	for iq := 0; iq < s.cfg.NQ; iq++ {
		dq := (s.qc[iq] - q0) / stdQ
		for iv := 0; iv < s.cfg.NV; iv++ {
			dv := (s.vc[iv] - v0) / stdV
			s.f[iq*s.cfg.NV+iv] = math.Exp(-0.5 * (dq*dq + dv*dv))
		}
	}
	return s.normalize()
}

// normalize scales the field to unit mass and resets the clock and the
// audit.
func (s *Solver) normalize() error {
	mass := s.g2d.Integrate(s.f)
	if !(mass > 0) {
		return fmt.Errorf("fokkerplanck: degenerate initial density (mass %v)", mass)
	}
	linalg.Scale(1/mass, s.f)
	s.t = 0
	s.clipped = 0
	s.outflow = 0
	s.step = 0
	return nil
}

// meanQ returns the mass-weighted mean queue in one contiguous pass,
// for the fp.meanq probe, which must not pay for the full Moments
// computation.
func (s *Solver) meanQ() float64 {
	nq, nv := s.cfg.NQ, s.cfg.NV
	var mass, mq float64
	for iq := 0; iq < nq; iq++ {
		row := s.f[iq*nv : (iq+1)*nv]
		var rowSum float64
		for _, v := range row {
			rowSum += v
		}
		mass += rowSum
		mq += rowSum * s.qc[iq]
	}
	if mass <= 0 {
		return 0
	}
	return mq / mass
}

// computeMaxSpeeds fills the v-edge drift table and scans it for the
// maximum advection speeds. The law and grid are immutable, so New
// calls it once. A non-finite drift anywhere on the grid is an error:
// an infinite one makes the stable step zero, and a NaN one would turn
// the density into NaN.
func (s *Solver) computeMaxSpeeds() (maxV, maxG float64, err error) {
	maxV = math.Max(math.Abs(s.cfg.VMin), math.Abs(s.cfg.VMax))
	for iq := 0; iq < s.cfg.NQ; iq++ {
		row := s.vEdgeDrifts(iq)
		for iv := 0; iv <= s.cfg.NV; iv++ {
			lambda := s.g2d.Y.Edge(iv) + s.cfg.Mu
			g := s.cfg.Law.Drift(s.qc[iq], lambda)
			row[iv] = g
			if a := math.Abs(g); !(a <= maxG) { // a new maximum, or NaN
				if math.IsNaN(a) || math.IsInf(a, 1) {
					return 0, 0, fmt.Errorf("fokkerplanck: law drift %v at (q, λ) = (%v, %v)", g, s.qc[iq], lambda)
				}
				maxG = a
			}
		}
	}
	return maxV, maxG, nil
}

// cflTarget is the Courant number MaxStableDt and Advance aim for.
const cflTarget = 0.8

// MaxStableDt returns the largest advection-stable step at the CFL
// target.
func (s *Solver) MaxStableDt() float64 {
	return s.g2d.MaxStableDt(cflTarget, s.maxV, s.maxG)
}

// vEdgeDrifts returns the edge-drift row of q-row iq.
func (s *Solver) vEdgeDrifts(iq int) []float64 {
	return s.edgeDrift[iq*(s.cfg.NV+1) : (iq+1)*(s.cfg.NV+1)]
}

// maxDiffusionNumber bounds the Crank-Nicolson diffusion number
// r = σ²·dt/(4Δq²) of one step. Beyond it one step's diffusion length
// spans thousands of cells and the float64 solve no longer holds the
// density's mass.
const maxDiffusionNumber = 1e6

// Step advances the solution by dt. It returns an error if dt violates
// the CFL bound (use MaxStableDt or Advance) or makes the
// q-diffusion number exceed maxDiffusionNumber.
func (s *Solver) Step(dt float64) error {
	if !(dt > 0) {
		return fmt.Errorf("fokkerplanck: non-positive step %v", dt)
	}
	if cfl := s.g2d.CFL(dt, s.maxV, s.maxG); cfl > 1.0000001 {
		return fmt.Errorf("fokkerplanck: step %v violates CFL (number %.3f > 1)", dt, cfl)
	}
	if dq := s.g2d.X.Dx; s.cfg.Sigma > 0 && !(s.cfg.Sigma*s.cfg.Sigma*dt/(4*dq*dq) <= maxDiffusionNumber) {
		return fmt.Errorf("fokkerplanck: step %v makes the q-diffusion number exceed %g", dt, maxDiffusionNumber)
	}
	if s.cfg.SecondOrder {
		s.advectQ2(dt)
		s.advectV2(dt)
	} else {
		s.advectQ(dt)
		s.advectV(dt)
	}
	if s.cfg.Sigma > 0 {
		s.diffuseQ(dt)
	}
	// Clip the tiny negative undershoots the explicit sweeps can
	// leave, accumulating the audit through the block-ordered
	// reduction so the clipped total is bit-identical for any worker
	// count.
	s.clipped += -parallel.ReduceSum(len(s.f), s.workers, func(lo, hi int) float64 {
		return linalg.ClampNonNegative(s.f[lo:hi])
	}) * s.g2d.CellArea()
	s.t += dt
	s.step++
	if rec := s.cfg.Obs; rec.Enabled() {
		if err := s.observe(rec, dt); err != nil {
			return err
		}
	}
	return nil
}

// observe feeds the attached recorder after a completed step: probe
// samples when due, invariant checks when enabled. It runs only with
// a live recorder, so the uninstrumented step pays one nil check.
func (s *Solver) observe(rec *obs.Recorder, dt float64) error {
	if rec.ProbeDue("fp.mass", s.t) {
		rec.Probe("fp.mass", s.t, s.g2d.Integrate(s.f))
		rec.Probe("fp.meanq", s.t, s.meanQ())
		rec.Probe("fp.clipped", s.t, s.clipped)
		rec.Probe("fp.outflow", s.t, s.outflow)
		rec.Probe("fp.cfl", s.t, s.g2d.CFL(dt, s.maxV, s.maxG))
	}
	if !rec.Invariants() {
		return nil
	}
	// Mass budget: transport is conservative, clipping ADDS mass to
	// the field (tracked positive), outflow removes it, so the exact
	// budget is ∫f = 1 + clipped − outflow to rounding.
	mass := s.g2d.Integrate(s.f)
	if err := rec.CheckMass(s.step, s.t, "fp.mass", mass, 1+s.clipped-s.outflow, obs.DefaultMassTol); err != nil {
		return err
	}
	if err := rec.CheckNonNegative(s.step, s.t, "fp.density", s.f); err != nil {
		return err
	}
	return rec.CheckCourant(s.step, s.t, "fp.cfl", s.g2d.CFL(dt, s.maxV, s.maxG), 1.0000001)
}

// Advance integrates until time tEnd with automatic steps capped at
// dtMax (0 = no cap beyond CFL). It fails when a step fails, or when
// the step is too small to move the clock before tEnd is reached.
func (s *Solver) Advance(tEnd, dtMax float64) error {
	if !(tEnd >= s.t) {
		return fmt.Errorf("fokkerplanck: cannot advance from %v to %v", s.t, tEnd)
	}
	for s.t < tEnd {
		dt := s.MaxStableDt()
		if dtMax > 0 && dt > dtMax {
			dt = dtMax
		}
		if math.IsInf(dt, 1) {
			return fmt.Errorf("fokkerplanck: unbounded stable step (no advection); pass dtMax")
		}
		if s.t+dt > tEnd {
			dt = tEnd - s.t
		}
		if dt < 1e-15*(1+s.t) {
			if tEnd-s.t < 1e-15*(1+s.t) {
				break // the last sliver is below the time resolution
			}
			return fmt.Errorf("fokkerplanck: step %v is below the time resolution at t=%v", dt, s.t)
		}
		if err := s.Step(dt); err != nil {
			return err
		}
	}
	return nil
}

// qCourant fills s.cq with the per-row Courant numbers v·dt/Δq and
// returns it.
func (s *Solver) qCourant(dt float64) []float64 {
	dq := s.g2d.X.Dx
	for iv, v := range s.vc {
		s.cq[iv] = v * dt / dq
	}
	return s.cq
}

// addQOutflow accumulates the mass leaving through the q = QMax
// boundary for the pending q-sweep: rows with v > 0 lose c·f from
// the last q cell. Both the first-order and the MUSCL sweep lose
// exactly this flux (the limiter's slope is zero at the boundary
// cell), so the audit is shared. src must be the pre-sweep field.
func (s *Solver) addQOutflow(src, cq []float64) {
	nq, nv := s.cfg.NQ, s.cfg.NV
	last := src[(nq-1)*nv : nq*nv]
	var flux float64
	for iv, c := range cq {
		if c > 0 {
			flux += c * last[iv]
		}
	}
	s.outflow += flux * s.g2d.CellArea()
}

// advectQ performs the upwind sweep of f_t + v f_q = 0, walking whole
// v-rows in storage order: row iq of the destination is assembled
// from source rows iq−1, iq, iq+1 with per-column Courant numbers, so
// every access is unit-stride. The source and destination fields
// ping-pong (no copy), and rows are sharded across the worker pool.
func (s *Solver) advectQ(dt float64) {
	nq, nv := s.cfg.NQ, s.cfg.NV
	cq := s.qCourant(dt)
	src, dst := s.f, s.tmp
	s.addQOutflow(src, cq)
	parallel.For(nq, s.workers, func(loQ, hiQ int) {
		for iq := loQ; iq < hiQ; iq++ {
			cur := src[iq*nv : (iq+1)*nv]
			out := dst[iq*nv : (iq+1)*nv]
			var up, down []float64
			if iq > 0 {
				up = src[(iq-1)*nv : iq*nv]
			}
			if iq < nq-1 {
				down = src[(iq+1)*nv : (iq+2)*nv]
			}
			for iv, c := range cq {
				switch {
				case c > 0:
					// Inflow through the left edge (zero at q = 0,
					// the reflecting boundary), outflow through the
					// right.
					var fluxIn float64
					if up != nil {
						fluxIn = c * up[iv]
					}
					out[iv] = cur[iv] + fluxIn - c*cur[iv]
				case c < 0:
					ac := -c
					// For v < 0 mass moves left: outflow through the
					// left edge (zero at q = 0), inflow from the
					// right neighbor (zero at q = QMax).
					var fluxIn, fluxOut float64
					if up != nil {
						fluxOut = ac * cur[iv]
					}
					if down != nil {
						fluxIn = ac * down[iv]
					}
					out[iv] = cur[iv] + fluxIn - fluxOut
				default:
					out[iv] = cur[iv]
				}
			}
		}
	})
	s.f, s.tmp = dst, src
}

// advectV performs the conservative upwind sweep of f_t + (g f)_v = 0
// with the cached edge drifts: per row, the upwinded edge fluxes are
// differenced into the destination in one contiguous pass. Rows are
// independent and shard across the worker pool; the fields ping-pong.
func (s *Solver) advectV(dt float64) {
	nq, nv := s.cfg.NQ, s.cfg.NV
	dv := s.g2d.Y.Dx
	cdt := dt / dv
	src, dst := s.f, s.tmp
	parallel.For(nq, s.workers, func(loQ, hiQ int) {
		for iq := loQ; iq < hiQ; iq++ {
			cur := src[iq*nv : (iq+1)*nv]
			out := dst[iq*nv : (iq+1)*nv]
			drift := s.vEdgeDrifts(iq)
			// prev is the scaled flux through edge iv; edges 0 and nv
			// are zero-flux boundaries.
			prev := 0.0
			for iv := 0; iv < nv; iv++ {
				var next float64
				if iv < nv-1 {
					if a := drift[iv+1]; a > 0 {
						next = a * cdt * cur[iv]
					} else {
						next = a * cdt * cur[iv+1]
					}
				}
				out[iv] = cur[iv] + prev - next
				prev = next
			}
		}
	})
	s.f, s.tmp = dst, src
}

// diffuseQ performs the Crank-Nicolson solve of f_t = (σ²/2) f_qq
// with zero-flux ends. All NV per-column tridiagonal systems share
// the same prefactored bands (diffFactor), so the solve runs as one
// multi-RHS Thomas pass whose forward sweep and back substitution
// stream across whole v-rows with unit stride: the right-hand side of
// row iq is built from field rows iq−1, iq, iq+1 (same columns) and
// immediately forward-eliminated into tmp, then the back substitution
// walks the rows in reverse into f. Column blocks are independent, so
// they shard across the worker pool.
func (s *Solver) diffuseQ(dt float64) {
	nq, nv := s.cfg.NQ, s.cfg.NV
	dq := s.g2d.X.Dx
	r := 0.5 * s.cfg.Sigma * s.cfg.Sigma * dt / (2 * dq * dq) // θ=1/2 CN factor
	s.qFac.Ensure(r, nq)
	inv, cp := s.qFac.Inv, s.qFac.Cp
	f, dp := s.f, s.tmp
	parallel.For(nv, s.workers, func(loV, hiV int) {
		// Fused RHS build + forward elimination, top row down.
		for iv := loV; iv < hiV; iv++ {
			dp[iv] = (f[iv] + r*(f[nv+iv]-f[iv])) * inv[0]
		}
		for iq := 1; iq < nq; iq++ {
			base := iq * nv
			prevRow := dp[(iq-1)*nv:]
			rowInv := inv[iq]
			switch iq {
			case nq - 1:
				for iv := loV; iv < hiV; iv++ {
					rhs := f[base+iv] + r*(f[base-nv+iv]-f[base+iv])
					dp[base+iv] = (rhs + r*prevRow[iv]) * rowInv
				}
			default:
				for iv := loV; iv < hiV; iv++ {
					rhs := f[base+iv] + r*(f[base-nv+iv]-2*f[base+iv]+f[base+nv+iv])
					dp[base+iv] = (rhs + r*prevRow[iv]) * rowInv
				}
			}
		}
		// Back substitution, bottom row up, into f.
		base := (nq - 1) * nv
		for iv := loV; iv < hiV; iv++ {
			f[base+iv] = dp[base+iv]
		}
		for iq := nq - 2; iq >= 0; iq-- {
			base := iq * nv
			rowCp := cp[iq]
			for iv := loV; iv < hiV; iv++ {
				f[base+iv] = dp[base+iv] - rowCp*f[base+nv+iv]
			}
		}
	})
}

// Moments computes the low-order moments of the current density.
func (s *Solver) Moments() Moments {
	nq, nv := s.cfg.NQ, s.cfg.NV
	area := s.g2d.CellArea()
	var mass, mq, mv float64
	for iq := 0; iq < nq; iq++ {
		for iv := 0; iv < nv; iv++ {
			w := s.f[iq*nv+iv] * area
			mass += w
			mq += w * s.qc[iq]
			mv += w * s.vc[iv]
		}
	}
	if mass <= 0 {
		return Moments{Mass: mass}
	}
	mq /= mass
	mv /= mass
	var vq, vv, cov float64
	for iq := 0; iq < nq; iq++ {
		dq := s.qc[iq] - mq
		for iv := 0; iv < nv; iv++ {
			w := s.f[iq*nv+iv] * area
			dv := s.vc[iv] - mv
			vq += w * dq * dq
			vv += w * dv * dv
			cov += w * dq * dv
		}
	}
	return Moments{
		Mass:  mass,
		MeanQ: mq, VarQ: vq / mass,
		MeanV: mv, VarV: vv / mass,
		Cov: cov / mass,
	}
}

// MarginalQ returns the marginal density over q (length NQ),
// integrating out v. Hot loops should prefer AppendMarginalQ.
func (s *Solver) MarginalQ() []float64 { return s.AppendMarginalQ(nil) }

// AppendMarginalQ appends the q-marginal (length NQ) to dst and
// returns the extended slice — the allocation-free variant of
// MarginalQ (pass dst[:0] to reuse its backing array).
func (s *Solver) AppendMarginalQ(dst []float64) []float64 {
	nq, nv := s.cfg.NQ, s.cfg.NV
	dv := s.g2d.Y.Dx
	for iq := 0; iq < nq; iq++ {
		var sum float64
		for _, v := range s.f[iq*nv : (iq+1)*nv] {
			sum += v
		}
		dst = append(dst, sum*dv)
	}
	return dst
}

// TailProb returns P(Q > b) under the current density — the overflow
// measure a deterministic fluid model cannot produce (experiment E10).
func (s *Solver) TailProb(b float64) float64 {
	nq, nv := s.cfg.NQ, s.cfg.NV
	area := s.g2d.CellArea()
	var p, mass float64
	for iq := 0; iq < nq; iq++ {
		inTail := s.qc[iq] > b
		for iv := 0; iv < nv; iv++ {
			w := s.f[iq*nv+iv] * area
			mass += w
			if inTail {
				p += w
			}
		}
	}
	if mass <= 0 {
		return 0
	}
	return p / mass
}
