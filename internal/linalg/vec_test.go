package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func TestScaleFillSum(t *testing.T) {
	x := []float64{1, 2, 3}
	Scale(3, x)
	for i, want := range []float64{3, 6, 9} {
		if x[i] != want {
			t.Fatalf("x[%d] after Scale = %v, want %v", i, x[i], want)
		}
	}
	Fill(x, -1)
	for i, v := range x {
		if v != -1 {
			t.Fatalf("x[%d] after Fill = %v, want -1", i, v)
		}
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
// sum(x) - removed.
func TestClampProperty(t *testing.T) {
	f := func(vals []float64) bool {
		x := make([]float64, len(vals))
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			x[i] = math.Mod(v, 100)
		}
		sum := func(x []float64) float64 {
			var s float64
			for _, v := range x {
				s += v
			}
			return s
		}
		before := sum(x)
		removed := ClampNonNegative(x)
		for _, v := range x {
			if v < 0 {
				return false
			}
		}
		return math.Abs(sum(x)-(before-removed)) < 1e-9*(1+math.Abs(before))
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
