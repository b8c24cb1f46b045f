package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil, nil) = %v, want 0", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot did not panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestAXPY(t *testing.T) {
	y := []float64{1, 1, 1}
	AXPY(2, []float64{1, 2, 3}, y)
	want := []float64{3, 5, 7}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestScaleFillSum(t *testing.T) {
	x := []float64{1, 2, 3}
	Scale(3, x)
	if got := Sum(x); got != 18 {
		t.Fatalf("Sum after Scale = %v, want 18", got)
	}
	Fill(x, -1)
	if got := Sum(x); got != -3 {
		t.Fatalf("Sum after Fill = %v, want -3", got)
	}
}

func TestL1Dist(t *testing.T) {
	if got := L1Dist([]float64{1, 2}, []float64{3, 0}); got != 4 {
		t.Fatalf("L1Dist = %v, want 4", got)
	}
}

func TestClampNonNegative(t *testing.T) {
	x := []float64{1, -0.5, 2, -0.25}
	removed := ClampNonNegative(x)
	if removed != -0.75 {
		t.Fatalf("removed = %v, want -0.75", removed)
	}
	for i, v := range x {
		if v < 0 {
			t.Fatalf("x[%d] = %v still negative", i, v)
		}
	}
	if x[0] != 1 || x[2] != 2 {
		t.Fatal("ClampNonNegative modified non-negative entries")
	}
}

// Property: Clamp leaves the vector non-negative and conserves
// Sum(x) - removed.
func TestClampProperty(t *testing.T) {
	f := func(vals []float64) bool {
		x := make([]float64, len(vals))
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			x[i] = math.Mod(v, 100)
		}
		before := Sum(x)
		removed := ClampNonNegative(x)
		for _, v := range x {
			if v < 0 {
				return false
			}
		}
		return math.Abs(Sum(x)-(before-removed)) < 1e-9*(1+math.Abs(before))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Cauchy-Schwarz |x·y| <= |x||y|.
func TestDotCauchySchwarz(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		n := len(raw) / 2
		x := make([]float64, n)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			a, b := raw[i], raw[n+i]
			if math.IsNaN(a) || math.IsInf(a, 0) {
				a = 1
			}
			if math.IsNaN(b) || math.IsInf(b, 0) {
				b = 1
			}
			x[i] = math.Mod(a, 1000)
			y[i] = math.Mod(b, 1000)
		}
		lhs := math.Abs(Dot(x, y))
		rhs := math.Sqrt(Dot(x, x)) * math.Sqrt(Dot(y, y))
		return lhs <= rhs*(1+1e-9)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMinmod(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{1, 2, 1}, {2, 1, 1}, {-1, -2, -1}, {-2, -1, -1},
		{1, -1, 0}, {-1, 1, 0}, {0, 5, 0}, {5, 0, 0},
	}
	for _, tc := range cases {
		if got := Minmod(tc.a, tc.b); got != tc.want {
			t.Errorf("Minmod(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}
