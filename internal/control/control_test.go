package control

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAIMDBranches(t *testing.T) {
	l, err := NewAIMD(2, 0.5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Drift(5, 100); got != 2 {
		t.Errorf("increase branch = %v, want 2", got)
	}
	if got := l.Drift(10, 100); got != 2 {
		t.Errorf("q == q̂ should increase (paper: Q <= q̂), got %v", got)
	}
	if got := l.Drift(11, 100); got != -50 {
		t.Errorf("decrease branch = %v, want -50", got)
	}
	if l.Name() != "AIMD" {
		t.Errorf("Name = %q", l.Name())
	}
	if l.Target() != 10 {
		t.Errorf("Target = %v, want 10", l.Target())
	}
}

func TestAIMDValidation(t *testing.T) {
	cases := []struct{ c0, c1, qHat float64 }{
		{0, 1, 1}, {-1, 1, 1}, {1, 0, 1}, {1, -2, 1}, {1, 1, -1},
		{math.NaN(), 1, 1}, {1, math.Inf(1), 1},
	}
	for _, tc := range cases {
		if _, err := NewAIMD(tc.c0, tc.c1, tc.qHat); err == nil {
			t.Errorf("NewAIMD(%v, %v, %v) accepted invalid params", tc.c0, tc.c1, tc.qHat)
		}
	}
}

func TestAIADBranches(t *testing.T) {
	l, err := NewAIAD(2, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Drift(5, 100); got != 2 {
		t.Errorf("increase branch = %v, want 2", got)
	}
	if got := l.Drift(11, 100); got != -3 {
		t.Errorf("decrease branch = %v, want -3", got)
	}
	if got := l.Drift(11, 0); got != 0 {
		t.Errorf("decrease at λ=0 = %v, want 0 (no negative rates)", got)
	}
	if got := l.Drift(11, -1); got != 0 {
		t.Errorf("decrease at λ<0 = %v, want 0", got)
	}
}

func TestCustomLaw(t *testing.T) {
	l := Custom{
		DriftFunc: func(q, lambda float64) float64 { return -q + lambda },
		LawName:   "affine",
		QHat:      7,
	}
	if got := l.Drift(3, 5); got != 2 {
		t.Errorf("Drift = %v, want 2", got)
	}
	if l.Name() != "affine" {
		t.Errorf("Name = %q, want affine", l.Name())
	}
	if (Custom{DriftFunc: l.DriftFunc}).Name() != "custom" {
		t.Error("empty LawName should default to custom")
	}
	if l.Target() != 7 {
		t.Errorf("Target = %v, want 7", l.Target())
	}
}

// Property: AIMD drift is C0 below the target and strictly negative
// above it (for λ > 0), for arbitrary valid parameters.
func TestAIMDSignProperty(t *testing.T) {
	f := func(c0Raw, c1Raw, qRaw, lamRaw uint16) bool {
		c0 := float64(c0Raw%1000)/100 + 0.01
		c1 := float64(c1Raw%1000)/100 + 0.01
		qHat := float64(qRaw % 100)
		lam := float64(lamRaw%1000)/10 + 0.1
		l, err := NewAIMD(c0, c1, qHat)
		if err != nil {
			return false
		}
		below := l.Drift(qHat-0.001, lam) == c0
		at := l.Drift(qHat, lam) == c0
		above := l.Drift(qHat+0.001, lam) < 0
		return below && at && above
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the exponential-decrease branch scales linearly with λ —
// the defining feature separating AIMD from AIAD.
func TestAIMDDecreaseLinearInLambda(t *testing.T) {
	f := func(lamRaw uint16) bool {
		lam := float64(lamRaw%1000)/10 + 0.1
		l, err := NewAIMD(1, 0.5, 10)
		if err != nil {
			return false
		}
		return math.Abs(l.Drift(20, 2*lam)-2*l.Drift(20, lam)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWindowApply(t *testing.T) {
	w, err := NewWindow(1, 0.5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Apply(8, 5); got != 9 {
		t.Errorf("uncongested Apply = %v, want 9", got)
	}
	if got := w.Apply(8, 15); got != 4 {
		t.Errorf("congested Apply = %v, want 4", got)
	}
	if got := w.Apply(1.5, 15); got != 1 {
		t.Errorf("Apply below WMin = %v, want clamp to 1", got)
	}
	w.WMax = 12
	if got := w.Apply(11.5, 5); got != 12 {
		t.Errorf("Apply above WMax = %v, want clamp to 12", got)
	}
}

func TestWindowValidation(t *testing.T) {
	cases := []struct{ a, d, qHat float64 }{
		{0, 0.5, 1}, {-1, 0.5, 1}, {1, 0, 1}, {1, 1, 1}, {1, 1.5, 1}, {1, 0.5, -1},
	}
	for _, tc := range cases {
		if _, err := NewWindow(tc.a, tc.d, tc.qHat); err == nil {
			t.Errorf("NewWindow(%v, %v, %v) accepted invalid params", tc.a, tc.d, tc.qHat)
		}
	}
}

func TestWindowRateEquivalent(t *testing.T) {
	w, err := NewWindow(1, 0.5, 10)
	if err != nil {
		t.Fatal(err)
	}
	aimd, err := w.RateEquivalent(0.1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// a/(rtt*interval) = 1/(0.1*0.1) = 100
	if math.Abs(aimd.C0-100) > 1e-9 {
		t.Errorf("C0 = %v, want 100", aimd.C0)
	}
	// -ln(0.5)/0.1 ≈ 6.931
	if math.Abs(aimd.C1-(-math.Log(0.5)/0.1)) > 1e-9 {
		t.Errorf("C1 = %v, want %v", aimd.C1, -math.Log(0.5)/0.1)
	}
	if aimd.QHat != 10 {
		t.Errorf("QHat = %v, want 10", aimd.QHat)
	}
	if _, err := w.RateEquivalent(0, 0.1); err == nil {
		t.Error("RateEquivalent accepted zero rtt")
	}
}

// Property: windows never leave [WMin, WMax] under any update
// sequence.
func TestWindowBoundsProperty(t *testing.T) {
	f := func(seedRaw uint16, updates []bool) bool {
		w, err := NewWindow(1, 0.5, 10)
		if err != nil {
			return false
		}
		w.WMax = 50
		win := 1 + float64(seedRaw%49)
		for _, congested := range updates {
			q := 5.0
			if congested {
				q = 15
			}
			win = w.Apply(win, q)
			if win < w.WMin || win > w.WMax {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
