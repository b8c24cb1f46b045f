package grid

import (
	"math"
	"testing"
	"testing/quick"
)

func mustUniform1D(t *testing.T, min, max float64, n int) Uniform1D {
	t.Helper()
	g, err := NewUniform1D(min, max, n)
	if err != nil {
		t.Fatalf("NewUniform1D(%v, %v, %d): %v", min, max, n, err)
	}
	return g
}

func TestNewUniform1DValidation(t *testing.T) {
	cases := []struct {
		name     string
		min, max float64
		n        int
	}{
		{"too few cells", 0, 1, 1},
		{"empty interval", 1, 1, 10},
		{"inverted interval", 2, 1, 10},
		{"nan min", math.NaN(), 1, 10},
		{"inf max", 0, math.Inf(1), 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewUniform1D(tc.min, tc.max, tc.n); err == nil {
				t.Fatalf("expected error for %s", tc.name)
			}
		})
	}
}

func TestCentersAndEdges(t *testing.T) {
	g := mustUniform1D(t, 0, 10, 5)
	if g.Dx != 2 {
		t.Fatalf("Dx = %v, want 2", g.Dx)
	}
	wantCenters := []float64{1, 3, 5, 7, 9}
	for i, want := range wantCenters {
		if got := g.Center(i); math.Abs(got-want) > 1e-12 {
			t.Errorf("Center(%d) = %v, want %v", i, got, want)
		}
	}
	if got := g.Edge(0); got != 0 {
		t.Errorf("Edge(0) = %v, want 0", got)
	}
	if got := g.Edge(5); got != 10 {
		t.Errorf("Edge(5) = %v, want 10", got)
	}
	centers := g.Centers()
	if len(centers) != 5 {
		t.Fatalf("Centers length %d, want 5", len(centers))
	}
	for i, want := range wantCenters {
		if math.Abs(centers[i]-want) > 1e-12 {
			t.Errorf("Centers()[%d] = %v, want %v", i, centers[i], want)
		}
	}
}

func TestCellOf(t *testing.T) {
	g := mustUniform1D(t, 0, 10, 5)
	cases := []struct {
		x    float64
		want int
	}{
		{-5, 0}, {0, 0}, {1.9, 0}, {2.0, 1}, {9.99, 4}, {10, 4}, {100, 4},
	}
	for _, tc := range cases {
		if got := g.CellOf(tc.x); got != tc.want {
			t.Errorf("CellOf(%v) = %d, want %d", tc.x, got, tc.want)
		}
	}
}

func TestCellOfCenterRoundTrip(t *testing.T) {
	f := func(nRaw uint8, minRaw, spanRaw int16) bool {
		n := int(nRaw%50) + 2
		min := float64(minRaw) / 10
		span := math.Abs(float64(spanRaw))/10 + 1
		g, err := NewUniform1D(min, min+span, n)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if g.CellOf(g.Center(i)) != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUniform2DIndexing(t *testing.T) {
	x := mustUniform1D(t, 0, 4, 4)
	y := mustUniform1D(t, -2, 2, 8)
	g := NewUniform2D(x, y)
	if g.Len() != 32 {
		t.Fatalf("Len = %d, want 32", g.Len())
	}
	if n := len(g.NewField()); n != g.Len() {
		t.Fatalf("NewField has %d cells, want Len = %d", n, g.Len())
	}
}

func TestIntegrateConstant(t *testing.T) {
	x := mustUniform1D(t, 0, 2, 10)
	y := mustUniform1D(t, 0, 3, 15)
	g := NewUniform2D(x, y)
	f := g.NewField()
	for i := range f {
		f[i] = 2.5
	}
	// integral of 2.5 over a 2x3 rectangle = 15
	if got := g.Integrate(f); math.Abs(got-15) > 1e-10 {
		t.Fatalf("Integrate = %v, want 15", got)
	}
}

func TestIntegratePanicsOnWrongLength(t *testing.T) {
	x := mustUniform1D(t, 0, 1, 4)
	g := NewUniform2D(x, x)
	defer func() {
		if recover() == nil {
			t.Fatal("Integrate did not panic on mismatched field")
		}
	}()
	g.Integrate(make([]float64, 3))
}

func TestCFL(t *testing.T) {
	x := mustUniform1D(t, 0, 1, 10) // dx = 0.1
	y := mustUniform1D(t, 0, 2, 10) // dy = 0.2
	g := NewUniform2D(x, y)
	// dt*(|1|/0.1 + |2|/0.2) = dt*20
	if got := g.CFL(0.05, 1, 2); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("CFL = %v, want 1.0", got)
	}
	if got := g.CFL(0.05, -1, -2); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("CFL with negative speeds = %v, want 1.0", got)
	}
}

func TestMaxStableDt(t *testing.T) {
	x := mustUniform1D(t, 0, 1, 10)
	g := NewUniform2D(x, x)
	dt := g.MaxStableDt(0.9, 3, 0)
	if got := g.CFL(dt, 3, 0); math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("CFL at MaxStableDt = %v, want 0.9", got)
	}
	if dt := g.MaxStableDt(1, 0, 0); !math.IsInf(dt, 1) {
		t.Fatalf("MaxStableDt with zero speeds = %v, want +Inf", dt)
	}
}

func TestMaxStableDtPanics(t *testing.T) {
	x := mustUniform1D(t, 0, 1, 10)
	g := NewUniform2D(x, x)
	defer func() {
		if recover() == nil {
			t.Fatal("MaxStableDt did not panic on non-positive target")
		}
	}()
	g.MaxStableDt(0, 1, 1)
}

// Property: CFL is linear in dt and respects MaxStableDt for arbitrary
// speeds.
func TestCFLProperty(t *testing.T) {
	f := func(sxRaw, syRaw int16) bool {
		sx := float64(sxRaw) / 100
		sy := float64(syRaw) / 100
		if sx == 0 && sy == 0 {
			return true
		}
		x, err := NewUniform1D(0, 1, 20)
		if err != nil {
			return false
		}
		g := NewUniform2D(x, x)
		dt := g.MaxStableDt(1.0, sx, sy)
		return math.Abs(g.CFL(dt, sx, sy)-1.0) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
