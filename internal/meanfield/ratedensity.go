package meanfield

import (
	"fmt"
	"math"

	"fpcc/internal/control"
	"fpcc/internal/grid"
	"fpcc/internal/linalg"
	"fpcc/internal/obs"
)

// RateDensity is the single-class kinetic kernel: one rate density
// f(λ, t) on a uniform λ-grid over [0, LMax], advected by a drift
// g(qObs, λ) with conservative first-order upwind (or MUSCL/minmod)
// sweeps and diffused by (σ²/2)·f_λλ with a Crank-Nicolson
// tridiagonal solve, both with zero-flux ends. It is the piece of the
// mean-field machinery that knows nothing about queues: the kinetic
// Engine couples a set of RateDensities to the queue ODEs of its
// Network, one queue for Density and a topology of link queues for
// internal/netmf.
//
// The stepping protocol is split so an engine can validate a whole
// step before mutating anything: SetDrift caches the cell-edge drifts
// and performs the CFL check WITHOUT touching the density, then
// Advect/Diffuse/ClampNegative apply the cached step.
type RateDensity struct {
	ax grid.Uniform1D
	f  []float64 // cell-centered density, length Bins
	lc []float64 // cell centers

	// edges holds λ at the interior cell edges 1..Bins-1: the rate
	// column SetDrift hands control.Drifts. Its queue column, the
	// observed queue once per edge, is written into col, which is free
	// until the diffusion solve.
	edges []float64
	// drift caches the cell-edge drifts SetDrift filled (and
	// CFL-checked) for the pending step; edges 1..Bins-1 are used. The
	// phase kernels of one class share a single drift slice.
	drift       []float64
	secondOrder bool

	// courant is the largest |g|·dt/Δλ of the drifts SetDrift last
	// cached — the margin the invariant checker re-verifies.
	courant float64

	// sum and m1 cache Σf and Σf·λ over the cells in index order, as
	// ClampNegative's pass left them; sumsOK is cleared by every other
	// write to f. MeanRate and Mass read the cache while it is valid,
	// so a step's coupling costs no extra pass over the density.
	sum, m1 float64
	sumsOK  bool

	// Prefactored Crank-Nicolson solve for the σ diffusion: the
	// bands depend only on rr, so the shared kernel rebuilds its
	// decomposition only when the step or σ changes and each Diffuse
	// is one fused forward/back substitution over the col workspace.
	fac     linalg.CNFactor
	col     []float64
	clipped float64

	// Open-system (birth–death) ledger. base is the initial mass (1
	// for a closed kernel, the phase weight for a churn phase kernel);
	// born and died accumulate the mass Deposit injected and Decay
	// removed, so the auditable budget generalizes to
	// ∫f = base + clipped + born − died. All three stay untouched on
	// closed kernels, reducing the budget to the classic 1 + clipped.
	base, born, died float64
}

// NewRateDensity builds the kernel on a Bins-cell grid over [0, lMax],
// initialized to a grid-discretized, renormalized Gaussian blob at
// lambda0 with spread initStd (a point mass when initStd is 0).
// secondOrder selects MUSCL/minmod transport over first-order upwind.
func NewRateDensity(lMax float64, bins int, lambda0, initStd float64, secondOrder bool) (*RateDensity, error) {
	ax, err := grid.NewUniform1D(0, lMax, bins)
	if err != nil {
		return nil, fmt.Errorf("rate axis: %w", err)
	}
	r := &RateDensity{
		ax:          ax,
		f:           make([]float64, bins),
		lc:          ax.Centers(),
		drift:       make([]float64, bins),
		secondOrder: secondOrder,
		col:         make([]float64, bins),
		base:        1,
	}
	r.edges = make([]float64, bins-1)
	for e := range r.edges {
		r.edges[e] = ax.Edge(e + 1)
	}
	blob, err := blobProfile(ax, r.lc, lambda0, initStd)
	if err != nil {
		return nil, err
	}
	copy(r.f, blob)
	return r, nil
}

// blobProfile builds the grid-discretized, renormalized Gaussian blob
// at lambda0 with spread initStd as a unit-mass density (∫ = 1) on the
// axis. A zero spread, or one so far below the cell width that the
// Gaussian underflows at the cell centers, gives the point mass in the
// cell holding lambda0.
func blobProfile(ax grid.Uniform1D, lc []float64, lambda0, initStd float64) ([]float64, error) {
	f := make([]float64, ax.N)
	if initStd > 0 {
		for i, l := range lc {
			z := (l - lambda0) / initStd
			f[i] = math.Exp(-0.5 * z * z)
		}
	}
	mass := 0.0
	for _, v := range f {
		mass += v
	}
	scale := 1 / (mass * ax.Dx)
	if math.IsInf(scale, 1) {
		clear(f)
		f[ax.CellOf(lambda0)], scale = 1, 1/ax.Dx
	}
	if !(scale < math.Inf(1)) {
		return nil, fmt.Errorf("blob at %v±%v is not a density on [0, %v]", lambda0, initStd, ax.Max)
	}
	linalg.Scale(scale, f)
	return f, nil
}

// Grid returns the λ-axis the density lives on.
func (r *RateDensity) Grid() grid.Uniform1D { return r.ax }

// Marginal returns a copy of the density (length Bins, cell-centered).
func (r *RateDensity) Marginal() []float64 {
	return append([]float64(nil), r.f...)
}

// ClippedMass returns the total probability mass ADDED by zeroing
// negative undershoots so far (a discretization audit, not a physical
// gain; see ClampNegative).
func (r *RateDensity) ClippedMass() float64 { return r.clipped }

// Budget returns the kernel's live mass base + born − died: the
// physical population mass (in units of the class's initial
// population), excluding the clipped-undershoot audit. 1 exactly for
// a closed kernel.
func (r *RateDensity) Budget() float64 { return r.base + r.born - r.died }

// Born returns the cumulative mass Deposit injected.
func (r *RateDensity) Born() float64 { return r.born }

// Died returns the cumulative mass Decay removed.
func (r *RateDensity) Died() float64 { return r.died }

// Mass returns the current total probability mass ∫f dλ. The sweeps
// are conservative with zero-flux ends, so the exact budget is
// Mass = base + ClippedMass + Born − Died to rounding (base is 1, and
// the ledger zero, outside the open-system configurations).
func (r *RateDensity) Mass() float64 {
	if r.sumsOK {
		return r.sum * r.ax.Dx
	}
	var m float64
	for _, v := range r.f {
		m += v
	}
	return m * r.ax.Dx
}

// Courant returns the largest Courant number |g|·dt/Δλ of the last
// SetDrift (0 before the first step).
func (r *RateDensity) Courant() float64 { return r.courant }

// CheckInvariants verifies the kernel's conservation laws against the
// attached recorder at the given step: the mass budget
// ∫f = base + clipped + born − died (the classic 1 + clipped on
// closed kernels), density non-negativity (including NaN), and the
// cached Courant margin. Field names are prefixed with field (e.g.
// "mf.class0" → "mf.class0.mass").
func (r *RateDensity) CheckInvariants(rec *obs.Recorder, step int64, t float64, field string) error {
	if err := rec.CheckMass(step, t, field+".mass", r.Mass(), r.base+r.clipped+r.born-r.died, obs.DefaultMassTol); err != nil {
		return err
	}
	if err := rec.CheckNonNegative(step, t, field+".density", r.f); err != nil {
		return err
	}
	return rec.CheckCourant(step, t, field+".cfl", r.courant, 1.0000001)
}

// MeanRate returns ⟨λ⟩, the mean rate of the density normalized by
// its current mass: free after ClampNegative, otherwise a single
// O(Bins) pass.
func (r *RateDensity) MeanRate() float64 {
	mass, m1 := r.sum, r.m1
	if !r.sumsOK {
		mass, m1 = 0, 0
		for i, v := range r.f {
			mass += v
			m1 += v * r.lc[i]
		}
	}
	if mass <= 0 {
		return math.NaN()
	}
	return m1 / mass
}

// Moments returns the mean and variance of the density, normalized by
// its current mass.
func (r *RateDensity) Moments() (mean, variance float64) {
	var mass, m1 float64
	for i, v := range r.f {
		mass += v
		m1 += v * r.lc[i]
	}
	if mass <= 0 {
		return math.NaN(), math.NaN()
	}
	mean = m1 / mass
	var m2 float64
	for i, v := range r.f {
		dl := r.lc[i] - mean
		m2 += v * dl * dl
	}
	return mean, m2 / mass
}

// SetDrift caches the cell-edge drifts g(qObs, λ_edge) for a step of
// size dt and checks the CFL bound max|g|·dt/Δλ ≤ 1. It does NOT
// mutate the density, so an engine can SetDrift every class before
// advecting any: a CFL error leaves the whole system untouched.
//
// The drifts come from one control.Drifts call over the edges. The
// bound is checked once, on max|g|: x ↦ x·dt/Δλ rounds monotonically,
// so that one product is exactly the largest per-edge Courant number
// (NaN drifts are skipped, as a per-edge comparison skips them).
func (r *RateDensity) SetDrift(law control.Law, qObs, dt float64) error {
	q := r.col[:len(r.edges)]
	linalg.Fill(q, qObs)
	g := r.drift[1:]
	control.Drifts(law, q, r.edges, g)
	var gmax float64
	for _, a := range g {
		if a := math.Abs(a); a > gmax {
			gmax = a
		}
	}
	c := gmax * dt / r.ax.Dx
	if c > cflLimit {
		return r.cflError(dt)
	}
	r.courant = 0
	if c > 0 {
		r.courant = c
	}
	return nil
}

// cflLimit is the largest Courant number SetDrift accepts (1 plus a
// rounding allowance).
const cflLimit = 1.0000001

// cflError names the first edge whose cached drift violates the CFL
// bound.
func (r *RateDensity) cflError(dt float64) error {
	for e := 1; e < r.ax.N; e++ {
		a := r.drift[e]
		if c := math.Abs(a) * dt / r.ax.Dx; c > cflLimit {
			return fmt.Errorf("drift %v at λ=%v violates CFL (|c|=%.3f > 1); reduce Dt",
				a, r.ax.Edge(e), c)
		}
	}
	panic("meanfield: CFL violation without a violating edge")
}

// Advect performs the conservative transport sweep of f_t + (g f)_λ =
// 0 with the cell-edge drifts SetDrift cached: first-order upwind, or
// MUSCL/minmod with the time-centred correction when the kernel is
// second-order. Both ends are zero-flux (a source's rate cannot leave
// [0, LMax]), so transport conserves mass exactly.
//
// The sweep runs in place. Edge e moves mass between cells e−1 and e
// and reads pre-step values up to cell e+1, which no earlier edge has
// written, so the pre-step values the fluxes need ride along in
// registers (o, the pre-step cell e−1; acc, its running value; sm, its
// slope) instead of in a copy of f.
func (r *RateDensity) Advect(dt float64) {
	r.sumsOK = false
	f := r.f
	nb := len(f)
	drift := r.drift[:nb]
	dl := r.ax.Dx
	o := f[0]
	acc := o
	if !r.secondOrder {
		for e := 1; e < nb; e++ {
			oe := f[e]
			ae := oe
			if a := drift[e]; a != 0 {
				up := oe
				if a > 0 {
					up = o
				}
				dm := a * up * dt / dl
				acc -= dm
				ae += dm
			}
			f[e-1] = acc
			o, acc = oe, ae
		}
		f[nb-1] = acc
		return
	}
	// sm is the minmod slope of cell e−1 and sc that of cell e. The
	// boundary cells fall back to first order: s(0) = 0 seeds sm, and
	// at the last edge the clamped read makes the right difference
	// exactly zero, so minmod returns 0.
	var sm float64
	for e := 1; e < nb; e++ {
		oe := f[e]
		sc := linalg.Minmod(oe-o, f[min(e+1, nb-1)]-oe)
		ae := oe
		if a := drift[e]; a != 0 {
			c := a * dt / dl
			var up float64
			if a > 0 {
				up = o + 0.5*(1-c)*sm
			} else {
				up = oe - 0.5*(1+c)*sc
			}
			dm := a * up * dt / dl
			acc -= dm
			ae += dm
		}
		f[e-1] = acc
		o, acc, sm = oe, ae, sc
	}
	f[nb-1] = acc
}

// Diffuse performs the Crank-Nicolson solve of f_t = (σ²/2) f_λλ with
// zero-flux (Neumann) ends — one tridiagonal system, the 1-D analogue
// of fokkerplanck's q-diffusion, run through the shared prefactored
// kernel (linalg.CNFactor): one fused RHS-build/forward-elimination
// and back-substitution pass, with no per-call band construction.
func (r *RateDensity) Diffuse(sigma, dt float64) {
	r.fac.Ensure(r.diffusionR(sigma, dt), r.ax.N)
	r.fac.Step(r.f, r.col)
	r.sumsOK = false
}

// diffusionR returns the Crank-Nicolson factor r of a Diffuse step of
// size dt at σ — what fac is built for. The Engine runs the solves
// itself, several kernels at once through linalg.StepLanes.
func (r *RateDensity) diffusionR(sigma, dt float64) float64 {
	dl := r.ax.Dx
	return 0.5 * sigma * sigma * dt / (2 * dl * dl) // θ=1/2 CN factor
}

// ClampNegative zeroes the tiny negative undershoots the explicit
// sweeps can leave, accumulating the mass added into ClippedMass so
// the audit quantity stays available without biasing any coupling
// (means are normalized by the current mass).
//
// The same pass accumulates Σf and Σf·λ for MeanRate and Mass, in
// the order their own passes would.
func (r *RateDensity) ClampNegative() {
	lc := r.lc[:len(r.f)]
	var removed, mass, m1 float64
	for i, v := range r.f {
		if v < 0 {
			removed += v
			r.f[i] = 0
			v = 0
		}
		mass += v
		m1 += v * lc[i]
	}
	r.clipped += -removed * r.ax.Dx
	r.sum, r.m1, r.sumsOK = mass, m1, true
}

// ScaleInit scales the freshly built initial condition (and the base
// of the mass budget) by w — the constructor for phase kernels, whose
// initial mass is the phase's weight rather than 1. Call it before
// stepping; it is not meaningful mid-run.
func (r *RateDensity) ScaleInit(w float64) {
	linalg.Scale(w, r.f)
	r.base = w
	r.sumsOK = false
}

// BlobProfile returns the unit-mass (∫ = 1) grid discretization of
// the Gaussian blob at lambda0 with spread initStd on this kernel's
// axis — the newborn rate profile Deposit injects.
func (r *RateDensity) BlobProfile(lambda0, initStd float64) ([]float64, error) {
	return blobProfile(r.ax, r.lc, lambda0, initStd)
}

// Deposit injects mass·profile into the density (profile a unit-mass
// density as returned by BlobProfile), crediting the born ledger: the
// birth half of the open-system source term.
func (r *RateDensity) Deposit(profile []float64, mass float64) {
	for i := range r.f {
		r.f[i] += mass * profile[i]
	}
	r.born += mass
	r.sumsOK = false
}

// Decay removes the fraction frac of the current mass uniformly
// across the density — the death half of the open-system source term,
// exact for a constant per-flow hazard because departures are
// rate-independent. The removed mass (frac times the current ∫f,
// whatever its clipped bias) is debited to the died ledger, keeping
// the budget ∫f = base + clipped + born − died exact to rounding.
func (r *RateDensity) Decay(frac float64) {
	if frac == 0 {
		return
	}
	removed := frac * r.Mass()
	linalg.Scale(1-frac, r.f)
	r.died += removed
	r.sumsOK = false
}
