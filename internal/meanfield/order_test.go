package meanfield

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

// translationL1 transports a Gaussian rate density under the constant
// drift g = 1 with no noise, so the exact solution is f0(λ − t). The
// blob starts at λ = 6 with spread 1 and ends at λ = 10 after t = 4,
// more than five spreads from both ends of [0, 20]. It takes bins/4
// steps, so the Courant number is 0.8 on every grid and halving Δλ
// halves Δt. It returns the L1 error over the whole density.
func translationL1(t *testing.T, bins int, secondOrder bool) float64 {
	t.Helper()
	const (
		lMax, l0, std = 20.0, 6.0, 1.0
		horizon       = 4.0
	)
	law := control.Custom{DriftFunc: func(q, lambda float64) float64 { return 1 }}
	r, err := NewRateDensity(lMax, bins, l0, std, secondOrder)
	if err != nil {
		t.Fatal(err)
	}
	f0 := slices.Clone(r.f)
	steps := bins / 4
	dt := horizon / float64(steps)
	for range steps {
		if err := r.SetDrift(law, 0, dt); err != nil {
			t.Fatal(err)
		}
		r.Advect(dt)
	}
	// NewRateDensity samples the Gaussian at the cell centres and
	// normalizes it, so the exact solution is the same normalized
	// profile shifted by g·t: recover the normalization from f0 at one
	// cell and evaluate the shifted Gaussian from it.
	ax := r.Grid()
	ref := ax.CellOf(l0)
	bump := func(l float64) float64 { z := (l - l0) / std; return math.Exp(-0.5 * z * z) }
	norm := f0[ref] / bump(ax.Center(ref))
	var l1 float64
	for i, v := range r.f {
		l1 += math.Abs(v-norm*bump(ax.Center(i)-horizon)) * ax.Dx
	}
	return l1
}

// heatL1 diffuses a Gaussian heat kernel in λ with σ = 1 by
// Crank–Nicolson alone. The kernel of variance 4 at λ = 20 spreads to
// variance 4 + σ²·t = 7.2 by t = 3.2, over seven standard deviations
// from both ends of [0, 40], so the zero-flux ends play no part.
// Δt = 0.8·Δλ, and 3.2 is a whole number of steps on every grid. It
// returns the L1 error of the density.
func heatL1(t *testing.T, bins int) float64 {
	t.Helper()
	const (
		lMax, l0, std0 = 40.0, 20.0, 2.0
		sigma          = 1.0
		horizon        = 3.2
	)
	r, err := NewRateDensity(lMax, bins, l0, std0, false)
	if err != nil {
		t.Fatal(err)
	}
	steps := bins / 10
	dt := horizon / float64(steps)
	for range steps {
		r.Diffuse(sigma, dt)
	}
	std := math.Sqrt(std0*std0 + sigma*sigma*horizon)
	ax := r.Grid()
	var l1 float64
	for i, v := range r.f {
		z := (ax.Center(i) - l0) / std
		want := math.Exp(-0.5*z*z) / (std * math.Sqrt(2*math.Pi))
		l1 += math.Abs(v-want) * ax.Dx
	}
	return l1
}

// TestRateDensityObservedOrder measures the order of convergence of
// the rate-density kernel's transport and diffusion on problems with
// closed-form solutions, over four grids, each halving Δλ at a fixed
// ratio Δt/Δλ. The bands are those of the Fokker-Planck solver's
// TestObservedOrderOfAccuracy, whose q-operators these kernels mirror.
//
//   - Upwind translation must show order in [0.8, 1.2]: its leading
//     error is the numerical diffusion g·Δλ·(1 − c)/2. The measured
//     orders are 0.97 to 0.99.
//   - MUSCL translation must show order at least 1.6: the minmod
//     limiter flattens the slope at the blob's peak, which costs some
//     of the nominal order 2 in L1. The measured orders are 1.82 to
//     1.92.
//   - Crank–Nicolson diffusion must show order in [1.8, 2.2]: second
//     order in Δt and in Δλ, so with Δt ∝ Δλ both error terms shrink
//     fourfold per halving. The measured orders are 2.00 to 2.03.
func TestRateDensityObservedOrder(t *testing.T) {
	grids := []int{160, 320, 640, 1280}
	var up, muscl, heat []float64
	for _, bins := range grids {
		up = append(up, translationL1(t, bins, false))
		muscl = append(muscl, translationL1(t, bins, true))
		heat = append(heat, heatL1(t, bins/4))
	}
	t.Logf("upwind L1 %.3g, orders %.3f", up, observedOrders(up))
	t.Logf("MUSCL L1 %.3g, orders %.3f", muscl, observedOrders(muscl))
	t.Logf("Crank–Nicolson L1 %.3g, orders %.3f", heat, observedOrders(heat))
	for k, p := range observedOrders(up) {
		if p < 0.8 || p > 1.2 {
			t.Errorf("upwind order %.3f between %d and %d bins, want [0.8, 1.2]", p, grids[k], grids[k+1])
		}
	}
	for k, p := range observedOrders(muscl) {
		if p < 1.6 {
			t.Errorf("MUSCL order %.3f between %d and %d bins, want >= 1.6", p, grids[k], grids[k+1])
		}
	}
	for k, p := range observedOrders(heat) {
		if p < 1.8 || p > 2.2 {
			t.Errorf("Crank–Nicolson order %.3f between %d and %d bins, want [1.8, 2.2]", p, grids[k]/4, grids[k+1]/4)
		}
	}
}
