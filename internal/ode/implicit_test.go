package ode

import (
	"math"
	"testing"
)

// decay is the scalar stiff test problem y' = −k·y.
func decay(k float64) System {
	return func(t float64, y, dydt []float64) { dydt[0] = -k * y[0] }
}

func TestImplicitTrapezoidExactOnLinearDecay(t *testing.T) {
	// Second order: error O(h²) against e^{−t}.
	s, err := NewImplicitTrapezoid(1)
	if err != nil {
		t.Fatal(err)
	}
	y := []float64{1}
	const h = 0.01
	for i := 0; i < 100; i++ {
		s.Step(decay(1), float64(i)*h, h, y)
	}
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	want := math.Exp(-1)
	if math.Abs(y[0]-want) > 1e-5 {
		t.Errorf("y(1) = %v, want %v", y[0], want)
	}
}

func TestImplicitTrapezoidAStable(t *testing.T) {
	// k·h = 100: explicit methods explode; the trapezoid stays
	// bounded and decays.
	s, err := NewImplicitTrapezoid(1)
	if err != nil {
		t.Fatal(err)
	}
	y := []float64{1}
	const h, k = 0.1, 1000.0
	for i := 0; i < 50; i++ {
		s.Step(decay(k), float64(i)*h, h, y)
		if math.Abs(y[0]) > 1 {
			t.Fatalf("step %d: |y| = %v grew", i, y[0])
		}
	}
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
}

func TestRK4ExplodesWhereImplicitHolds(t *testing.T) {
	// The motivating comparison: same stiff problem, same step.
	const h, k = 0.1, 1000.0
	rk := NewRK4(1)
	y := []float64{1}
	for i := 0; i < 20; i++ {
		rk.Step(decay(k), float64(i)*h, h, y)
	}
	if !(math.Abs(y[0]) > 1e10 || math.IsNaN(y[0]) || math.IsInf(y[0], 0)) {
		t.Errorf("RK4 at kh=100 unexpectedly stable: y = %v", y[0])
	}
}

func TestBDF2LStableKillsStiffTransient(t *testing.T) {
	// L-stability: for kh → ∞ the BDF2 amplification goes to zero, so
	// the stiff component must be crushed, not just bounded.
	s, err := NewBDF2(1)
	if err != nil {
		t.Fatal(err)
	}
	y := []float64{1}
	const h, k = 0.5, 10000.0
	for i := 0; i < 10; i++ {
		s.Step(decay(k), float64(i)*h, h, y)
	}
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	if math.Abs(y[0]) > 1e-6 {
		t.Errorf("stiff transient survived: y = %v", y[0])
	}
}

func TestBDF2SecondOrderConvergence(t *testing.T) {
	// Halving h must cut the error by ≈ 4 on a smooth problem
	// (y' = cos t, y(0) = 0, exact sin t).
	sys := func(t float64, y, dydt []float64) { dydt[0] = math.Cos(t) }
	errAt := func(h float64) float64 {
		s, err := NewBDF2(1)
		if err != nil {
			t.Fatal(err)
		}
		y := []float64{0}
		n := int(math.Round(2 / h))
		for i := 0; i < n; i++ {
			s.Step(sys, float64(i)*h, h, y)
		}
		if s.Err() != nil {
			t.Fatal(s.Err())
		}
		return math.Abs(y[0] - math.Sin(2))
	}
	e1 := errAt(0.02)
	e2 := errAt(0.01)
	ratio := e1 / e2
	if ratio < 3 || ratio > 5 {
		t.Errorf("error ratio %v on halving, want ≈ 4 (e1=%v e2=%v)", ratio, e1, e2)
	}
}

func TestImplicitTrapezoidSecondOrderConvergence(t *testing.T) {
	sys := func(t float64, y, dydt []float64) { dydt[0] = -y[0] + math.Sin(t) }
	exact := func(t float64) float64 {
		// y' + y = sin t, y(0) = 1 → y = 1.5e^{−t} + (sin t − cos t)/2.
		return 1.5*math.Exp(-t) + (math.Sin(t)-math.Cos(t))/2
	}
	errAt := func(h float64) float64 {
		s, err := NewImplicitTrapezoid(1)
		if err != nil {
			t.Fatal(err)
		}
		y := []float64{1}
		n := int(math.Round(3 / h))
		for i := 0; i < n; i++ {
			s.Step(sys, float64(i)*h, h, y)
		}
		return math.Abs(y[0] - exact(3))
	}
	ratio := errAt(0.02) / errAt(0.01)
	if ratio < 3 || ratio > 5 {
		t.Errorf("error ratio %v on halving, want ≈ 4", ratio)
	}
}

func TestBDF2TwoDimensionalOscillator(t *testing.T) {
	// Harmonic oscillator: checks the dense Newton path for dim > 1.
	sys := func(t float64, y, dydt []float64) {
		dydt[0] = y[1]
		dydt[1] = -y[0]
	}
	s, err := NewBDF2(2)
	if err != nil {
		t.Fatal(err)
	}
	y := []float64{1, 0}
	const h = 0.002
	n := int(math.Round(math.Pi / h))
	for i := 0; i < n; i++ {
		s.Step(sys, float64(i)*h, h, y)
	}
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	// After half a period: y ≈ (−1, 0).
	if math.Abs(y[0]+1) > 0.01 || math.Abs(y[1]) > 0.01 {
		t.Errorf("y(π) = %v, want (−1, 0)", y)
	}
}

func TestBDF2RejectsVariableStep(t *testing.T) {
	s, err := NewBDF2(1)
	if err != nil {
		t.Fatal(err)
	}
	y := []float64{1}
	s.Step(decay(1), 0, 0.1, y)
	s.Step(decay(1), 0.1, 0.1, y)
	s.Step(decay(1), 0.2, 0.05, y) // step change
	if s.Err() == nil {
		t.Error("variable step accepted silently")
	}
}

func TestImplicitSteppersViaFixedSolve(t *testing.T) {
	// The implicit steppers satisfy the Stepper interface and work
	// through the generic driver, SolveWithEvents with no events.
	trap, err := NewImplicitTrapezoid(1)
	if err != nil {
		t.Fatal(err)
	}
	bdf, err := NewBDF2(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		s    Stepper
	}{{"trapezoid", trap}, {"BDF2", bdf}} {
		tr, err := fixedSolve(decay(2), c.s, []float64{1}, 0, 1, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		_, last := tr.Last()
		if math.Abs(last[0]-math.Exp(-2)) > 1e-4 {
			t.Errorf("%s: y(1) = %v, want e^{−2}", c.name, last[0])
		}
	}
	if err := bdf.Err(); err != nil {
		t.Errorf("BDF2 through the driver: %v", err)
	}
}

func TestNewImplicitValidation(t *testing.T) {
	if _, err := NewImplicitTrapezoid(0); err == nil {
		t.Error("zero dim: want error")
	}
	if _, err := NewBDF2(-1); err == nil {
		t.Error("negative dim: want error")
	}
}
