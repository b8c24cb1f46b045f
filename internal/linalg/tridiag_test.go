package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"fpcc/internal/rng"
)

func TestTridiagSolveKnown(t *testing.T) {
	// System:
	//  2x0 +  x1        = 4
	//   x0 + 2x1 +  x2  = 8
	//         x1 + 2x2  = 8
	// Solution: x = [1, 2, 3]
	a := []float64{0, 1, 1}
	b := []float64{2, 2, 2}
	c := []float64{1, 1, 0}
	d := []float64{4, 8, 8}
	x := make([]float64, 3)
	var solver Tridiag
	if err := solver.Solve(a, b, c, d, x); err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestTridiagSolveSize1(t *testing.T) {
	var solver Tridiag
	x := make([]float64, 1)
	if err := solver.Solve([]float64{0}, []float64{4}, []float64{0}, []float64{8}, x); err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-15 {
		t.Fatalf("x[0] = %v, want 2", x[0])
	}
}

func TestTridiagSolveAliasedRHS(t *testing.T) {
	a := []float64{0, 1, 1}
	b := []float64{2, 2, 2}
	c := []float64{1, 1, 0}
	d := []float64{4, 8, 8}
	var solver Tridiag
	if err := solver.Solve(a, b, c, d, d); err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if math.Abs(d[i]-want[i]) > 1e-12 {
			t.Fatalf("aliased x[%d] = %v, want %v", i, d[i], want[i])
		}
	}
}

func TestTridiagSingular(t *testing.T) {
	var solver Tridiag
	x := make([]float64, 2)
	err := solver.Solve([]float64{0, 0}, []float64{0, 1}, []float64{0, 0}, []float64{1, 1}, x)
	if err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestTridiagLengthMismatch(t *testing.T) {
	var solver Tridiag
	err := solver.Solve(make([]float64, 2), make([]float64, 3), make([]float64, 3),
		make([]float64, 3), make([]float64, 3))
	if err == nil {
		t.Fatal("expected error on mismatched lengths")
	}
}

func TestTridiagEmpty(t *testing.T) {
	var solver Tridiag
	if err := solver.Solve(nil, nil, nil, nil, nil); err == nil {
		t.Fatal("expected error on empty system")
	}
}

// Property: Solve then multiplying back by the three bands
// round-trips for random diagonally dominant systems.
func TestTridiagRoundTripProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%30) + 1
		r := rng.New(seed)
		a := make([]float64, n)
		b := make([]float64, n)
		c := make([]float64, n)
		d := make([]float64, n)
		x := make([]float64, n)
		for i := 0; i < n; i++ {
			a[i] = r.Float64() - 0.5
			c[i] = r.Float64() - 0.5
			// Diagonal dominance guarantees a stable solve.
			b[i] = 2 + math.Abs(a[i]) + math.Abs(c[i]) + r.Float64()
			d[i] = 10 * (r.Float64() - 0.5)
		}
		a[0], c[n-1] = 0, 0
		var solver Tridiag
		if err := solver.Solve(a, b, c, d, x); err != nil {
			return false
		}
		for i := range x {
			y := b[i] * x[i]
			if i > 0 {
				y += a[i] * x[i-1]
			}
			if i < n-1 {
				y += c[i] * x[i+1]
			}
			if math.Abs(y-d[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTridiagWorkspaceReuse(t *testing.T) {
	var solver Tridiag
	// First solve with size 5 allocates; second with size 3 must reuse.
	for _, n := range []int{5, 3, 5} {
		a := make([]float64, n)
		b := make([]float64, n)
		c := make([]float64, n)
		d := make([]float64, n)
		x := make([]float64, n)
		for i := 0; i < n; i++ {
			b[i] = 2
			d[i] = 1
		}
		if err := solver.Solve(a, b, c, d, x); err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if math.Abs(x[i]-0.5) > 1e-12 {
				t.Fatalf("n=%d: x[%d] = %v, want 0.5", n, i, x[i])
			}
		}
	}
}

func BenchmarkTridiagSolve256(b *testing.B) {
	const n = 256
	a := make([]float64, n)
	bb := make([]float64, n)
	c := make([]float64, n)
	d := make([]float64, n)
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i], bb[i], c[i], d[i] = -1, 4, -1, 1
	}
	a[0], c[n-1] = 0, 0
	var solver Tridiag
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := solver.Solve(a, bb, c, d, x); err != nil {
			b.Fatal(err)
		}
	}
}
