package fokkerplanck

import (
	"math"
	"slices"
	"testing"

	"fpcc/internal/control"
)

// observedOrders returns log2(e[k]/e[k+1]) for errors measured on grids
// refined by a factor of two each time.
func observedOrders(errs []float64) []float64 {
	var p []float64
	for k := 0; k+1 < len(errs); k++ {
		p = append(p, math.Log2(errs[k]/errs[k+1]))
	}
	return p
}

// translationL1 advects a Gaussian under the zero-drift law with no
// noise, so every v-row translates rigidly: the exact solution is
// f0(q − v·t, v). The blob starts at q = 20 with spread 3; rows move at
// 0.5 to 1.5, so after t = 10 it sits at q = 25 to 35, more than five
// spreads from both ends of [0, 80]. Advance steps at the fixed
// Courant number 0.8 (the CFL target; the drift is zero), so halving
// Δq halves Δt. It returns the L1 error over the whole (q, v) field.
func translationL1(t *testing.T, nq int, secondOrder bool) float64 {
	t.Helper()
	const (
		q0, stdQ = 20.0, 3.0
		horizon  = 10.0
	)
	cfg := Config{
		Law: control.Unresponsive{}, Mu: 10,
		QMax: 80, NQ: nq,
		VMin: 0.5, VMax: 1.5, NV: 4,
		SecondOrder: secondOrder,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetGaussian(q0, 1, stdQ, 0.5); err != nil {
		t.Fatal(err)
	}
	f0 := slices.Clone(s.f)
	if err := s.Advance(horizon, 0); err != nil {
		t.Fatal(err)
	}
	g := s.Grid()
	// SetGaussian samples exp(−…) at the cell centres and normalizes
	// the field, so the exact solution is the same normalized profile
	// shifted along q: recover each row's normalization from f0 at one
	// cell and evaluate the shifted Gaussian from it.
	ref := g.X.CellOf(q0)
	bump := func(q float64) float64 { d := (q - q0) / stdQ; return math.Exp(-0.5 * d * d) }
	var l1 float64
	for iv := 0; iv < cfg.NV; iv++ {
		v := g.Y.Center(iv)
		norm := f0[ref*cfg.NV+iv] / bump(g.X.Center(ref))
		for iq := 0; iq < cfg.NQ; iq++ {
			want := norm * bump(g.X.Center(iq)-v*horizon)
			l1 += math.Abs(s.f[iq*cfg.NV+iv]-want) * g.CellArea()
		}
	}
	return l1
}

// heatL1 diffuses a Gaussian heat kernel in q with σ = 1. All mass sits
// in the v = 0 row (a spread of 0.01 in v puts exp(−800) = 0 in the
// neighbouring rows at ±0.4), so q-advection is the identity and the
// step is the Crank–Nicolson solve alone. The kernel of variance 4 at
// q = 20 spreads to variance 4 + σ²·t = 7.2 by t = 3.2, over seven
// standard deviations from both ends of [0, 40], so the zero-flux
// boundaries play no part. Δt = 0.8·Δq (the CFL target with speed
// bound 1), and 3.2 is a whole number of steps on every grid. It
// returns the L1 error of the q-marginal.
func heatL1(t *testing.T, nq int) float64 {
	t.Helper()
	const (
		q0, std0 = 20.0, 2.0
		sigma    = 1.0
		horizon  = 3.2
	)
	cfg := Config{
		Law: control.Unresponsive{}, Mu: 10, Sigma: sigma,
		QMax: 40, NQ: nq,
		VMin: -1, VMax: 1, NV: 5,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetGaussian(q0, 0, std0, 0.01); err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(horizon, 0); err != nil {
		t.Fatal(err)
	}
	std := math.Sqrt(std0*std0 + sigma*sigma*horizon)
	gx := s.Grid().X
	var l1 float64
	for iq, m := range s.MarginalQ() {
		d := (gx.Center(iq) - q0) / std
		want := math.Exp(-0.5*d*d) / (std * math.Sqrt(2*math.Pi))
		l1 += math.Abs(m-want) * gx.Dx
	}
	return l1
}

// TestObservedOrderOfAccuracy measures the order of convergence of the
// q-operators on problems with closed-form solutions, over four
// grids, each halving Δq at a fixed ratio Δt/Δq.
//
//   - Upwind translation must show order in [0.8, 1.2]. The scheme is
//     first order: its leading error is the numerical diffusion
//     v·Δq·(1 − c)/2. The measured orders are 0.94 to 0.99, rising
//     toward 1 as the grid refines. The band leaves room for that
//     coarse-grid shortfall but rejects a scheme that has become
//     zeroth or second order.
//   - MUSCL translation must show order at least 1.6. The minmod
//     limiter flattens the slope at the blob's peak, which costs some
//     of the nominal order 2 in L1: the measured orders are 1.78 to
//     1.90. Dropping the limited slope gives the upwind orders near 1.
//   - Crank–Nicolson diffusion must show order in [1.8, 2.2]. It is
//     second order in Δt and in Δq, and with Δt ∝ Δq both error terms
//     shrink fourfold per halving: the measured orders are 1.98 to
//     2.01. A diffusion coefficient off by O(Δq), or a first-order
//     time discretization, gives order near 1.
func TestObservedOrderOfAccuracy(t *testing.T) {
	grids := []int{200, 400, 800, 1600}
	var up, muscl, heat []float64
	for _, nq := range grids {
		up = append(up, translationL1(t, nq, false))
		muscl = append(muscl, translationL1(t, nq, true))
		heat = append(heat, heatL1(t, nq/4))
	}
	t.Logf("upwind L1 %.3g, orders %.3f", up, observedOrders(up))
	t.Logf("MUSCL L1 %.3g, orders %.3f", muscl, observedOrders(muscl))
	t.Logf("Crank–Nicolson L1 %.3g, orders %.3f", heat, observedOrders(heat))
	for k, p := range observedOrders(up) {
		if p < 0.8 || p > 1.2 {
			t.Errorf("upwind order %.3f between NQ=%d and %d, want [0.8, 1.2]", p, grids[k], grids[k+1])
		}
	}
	for k, p := range observedOrders(muscl) {
		if p < 1.6 {
			t.Errorf("MUSCL order %.3f between NQ=%d and %d, want >= 1.6", p, grids[k], grids[k+1])
		}
	}
	for k, p := range observedOrders(heat) {
		if p < 1.8 || p > 2.2 {
			t.Errorf("Crank–Nicolson order %.3f between NQ=%d and %d, want [1.8, 2.2]", p, grids[k]/4, grids[k+1]/4)
		}
	}
}

// stationaryErrors runs Eq. 14 with λ frozen below μ (a zero-drift
// law, as sde.TestReflectedDiffusionStationary does for the
// Monte-Carlo side) until the q-marginal has relaxed, and returns the
// error of its mean against σ²/(2(μ−λ)) and its L1 distance to the
// exact stationary law. With v = λ − μ < 0 fixed, the zero-flux
// condition v·f − (σ²/2)·f_q = 0 at q = 0 makes that law exponential
// with mean m = σ²/(2|v|). All mass sits in the v = −1 row (the rows
// beside it at ±0.4 get exp(−800) = 0), so the v-sweep is the
// identity. With σ = 1 the mean is 0.5 and the slowest mode decays as
// exp(−v²t/(2σ²)) = exp(−t/2), so t = 40 leaves exp(−20) of the
// initial condition; QMax = 10 truncates exp(−20) of the law.
func stationaryErrors(t *testing.T, nq int, secondOrder bool) (meanErr, l1 float64) {
	t.Helper()
	const (
		sigma, v = 1.0, -1.0
		horizon  = 40.0
	)
	cfg := Config{
		Law: control.Custom{DriftFunc: func(q, lambda float64) float64 { return 0 }, QHat: 1e9},
		Mu:  10, Sigma: sigma,
		QMax: 10, NQ: nq,
		VMin: -2, VMax: 0, NV: 5,
		SecondOrder: secondOrder,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetGaussian(2, v, 0.5, 0.01); err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(horizon, 0); err != nil {
		t.Fatal(err)
	}
	m := sigma * sigma / (2 * -v)
	gx := s.Grid().X
	for iq, p := range s.MarginalQ() {
		// The exact law's average over the cell.
		lo, hi := gx.Center(iq)-gx.Dx/2, gx.Center(iq)+gx.Dx/2
		want := (math.Exp(-lo/m) - math.Exp(-hi/m)) / gx.Dx
		l1 += math.Abs(p-want) * gx.Dx
	}
	return math.Abs(s.Moments().MeanQ - m), l1
}

// TestStationaryLawAnchor holds the Fokker-Planck solver to the
// closed-form stationary law of a frozen rate below capacity, over
// three grids, each halving Δq (Advance keeps Δt/Δq fixed at the CFL
// target).
//
//   - Upwind: with flux v·f taken from the upwind cell, the discrete
//     zero-flux law is geometric, f_{i+1}/f_i = D/(D + |v|·Δq) with
//     D = σ²/2, and its mean over the cell centres is exactly
//     m + Δq/2. The mean error must be Δq/2 to within 1% (measured:
//     0.0499999, 0.025, 0.0125), so its order is 1. The L1 distance
//     must show order in [0.8, 1.2] (measured 0.955 and 0.977).
//   - MUSCL: the law peaks at the reflecting boundary, where the
//     minmod limiter flattens the slope, and the scheme is first order
//     here too (measured mean orders 1.16 and 1.09, L1 orders 0.905
//     and 0.930). Both
//     errors must fall with order in [0.8, 1.2] and stay below
//     upwind's on every grid (the mean error by about half).
func TestStationaryLawAnchor(t *testing.T) {
	grids := []int{100, 200, 400}
	var upMean, upL1, musclMean, musclL1 []float64
	for _, nq := range grids {
		m, l := stationaryErrors(t, nq, false)
		upMean, upL1 = append(upMean, m), append(upL1, l)
		m, l = stationaryErrors(t, nq, true)
		musclMean, musclL1 = append(musclMean, m), append(musclL1, l)
	}
	t.Logf("upwind mean error %.6g, orders %.3f", upMean, observedOrders(upMean))
	t.Logf("upwind L1 %.3g, orders %.3f", upL1, observedOrders(upL1))
	t.Logf("MUSCL mean error %.3g, orders %.3f", musclMean, observedOrders(musclMean))
	t.Logf("MUSCL L1 %.3g, orders %.3f", musclL1, observedOrders(musclL1))
	for k, nq := range grids {
		if half := 10 / float64(nq) / 2; math.Abs(upMean[k]-half) > 0.01*half {
			t.Errorf("upwind mean error %.6g at NQ=%d, want Δq/2 = %.6g", upMean[k], nq, half)
		}
		if musclMean[k] >= upMean[k] || musclL1[k] >= upL1[k] {
			t.Errorf("MUSCL errors (mean %.3g, L1 %.3g) at NQ=%d not below upwind's (%.3g, %.3g)", musclMean[k], musclL1[k], nq, upMean[k], upL1[k])
		}
	}
	for name, errs := range map[string][]float64{"upwind L1": upL1, "MUSCL mean": musclMean, "MUSCL L1": musclL1} {
		for k, p := range observedOrders(errs) {
			if p < 0.8 || p > 1.2 {
				t.Errorf("%s order %.3f between NQ=%d and %d, want [0.8, 1.2]", name, p, grids[k], grids[k+1])
			}
		}
	}
}
