package control

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewLinearValidation(t *testing.T) {
	cases := []struct{ kq, kl, qHat, mu float64 }{
		{0, 1, 10, 5}, {-1, 1, 10, 5}, {1, -1, 10, 5},
		{1, 1, -2, 5}, {1, 1, 10, 0}, {math.NaN(), 1, 10, 5},
		{1, math.Inf(1), 10, 5},
	}
	for _, tc := range cases {
		if _, err := NewLinear(tc.kq, tc.kl, tc.qHat, tc.mu); err == nil {
			t.Errorf("NewLinear(%v,%v,%v,%v): want error", tc.kq, tc.kl, tc.qHat, tc.mu)
		}
	}
}

func TestLinearDriftSigns(t *testing.T) {
	l, err := NewLinear(0.5, 0.3, 20, 10)
	if err != nil {
		t.Fatal(err)
	}
	// At the equilibrium (q̂, MuRef) the drift vanishes.
	if g := l.Drift(20, 10); g != 0 {
		t.Errorf("drift at equilibrium = %v, want 0", g)
	}
	// Above-target queue pushes the rate down; idle queue pulls it up.
	if g := l.Drift(30, 10); g >= 0 {
		t.Errorf("congested drift = %v, want negative", g)
	}
	if g := l.Drift(5, 10); g <= 0 {
		t.Errorf("idle drift = %v, want positive", g)
	}
	// Rate above the reference is damped.
	if g := l.Drift(20, 15); g >= 0 {
		t.Errorf("over-rate drift = %v, want negative", g)
	}
}

func TestLinearEquilibriumQ(t *testing.T) {
	l, err := NewLinear(0.5, 0.3, 20, 12)
	if err != nil {
		t.Fatal(err)
	}
	// With the true μ = 10 below the reference 12, the law keeps
	// pushing the rate up and the equilibrium queue sits above q̂:
	// q* = q̂ + Kl·(MuRef−μ)/Kq = 20 + 0.3·(12−10)/0.5 = 21.2 is where
	// the drift vanishes at λ = μ.
	const mu = 10.0
	if g := l.Drift(21.2, mu); math.Abs(g) > 1e-12 {
		t.Errorf("drift at q* = 21.2 is %v, want 0", g)
	}
	if g := l.Drift(20, mu); !(g > 0) {
		t.Errorf("drift at q̂ = %v, want positive (optimistic reference)", g)
	}
	// Exact reference → q* = q̂.
	exact, _ := NewLinear(0.5, 0.3, 20, mu)
	if g := exact.Drift(20, mu); g != 0 {
		t.Errorf("exact-reference drift at q̂ = %v, want 0", g)
	}
}

func TestLinearInterface(t *testing.T) {
	l, err := NewLinear(1, 0, 15, 10)
	if err != nil {
		t.Fatal(err)
	}
	var law Law = l
	if law.Name() != "PD" || law.Target() != 15 {
		t.Errorf("interface accessors: %q %v", law.Name(), law.Target())
	}
}

// Property: the drift is affine — exactly linear in both arguments.
func TestLinearSuperpositionProperty(t *testing.T) {
	l, err := NewLinear(0.7, 0.2, 20, 10)
	if err != nil {
		t.Fatal(err)
	}
	f := func(q1, q2, lam1, lam2 int8) bool {
		qa, qb := float64(q1), float64(q2)
		la, lb := float64(lam1), float64(lam2)
		mid := l.Drift((qa+qb)/2, (la+lb)/2)
		avg := (l.Drift(qa, la) + l.Drift(qb, lb)) / 2
		return math.Abs(mid-avg) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
