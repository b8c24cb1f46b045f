package characteristics

import (
	"math"
	"testing"
	"testing/quick"

	"fpcc/internal/control"
)

func TestReturnMapValidation(t *testing.T) {
	law := control.AIMD{C0: 2, C1: 0.8, QHat: 20}
	if _, err := ReturnMap(law, 10, 0); err == nil {
		t.Error("accepted zero amplitude")
	}
	if _, err := ReturnMap(law, 10, -1); err == nil {
		t.Error("accepted negative amplitude")
	}
	if _, err := ReturnMap(law, 0, 1); err == nil {
		t.Error("accepted zero service rate")
	}
}

// TestReturnMapContracts: Theorem 1 — one revolution strictly shrinks
// the amplitude, across scales and parameters.
func TestReturnMapContracts(t *testing.T) {
	cases := []struct {
		c0, c1, qHat, mu float64
	}{
		{2, 0.8, 20, 10},
		{0.5, 0.2, 5, 3},
		{8, 3, 40, 25},
		{1, 1, 1, 1},
	}
	for _, tc := range cases {
		law := control.AIMD{C0: tc.c0, C1: tc.c1, QHat: tc.qHat}
		// A logarithmic sweep of amplitudes from μ/100 to 2μ.
		amps := make([]float64, 12)
		for i := range amps {
			amps[i] = tc.mu / 100 * math.Pow(200, float64(i)/11)
		}
		table, err := ContractionTable(law, tc.mu, amps)
		if err != nil {
			t.Errorf("%+v: %v", tc, err)
			continue
		}
		for _, row := range table {
			if row[2] >= 1 {
				t.Errorf("%+v: a=%v maps to a'=%v, ratio %v >= 1", tc, row[0], row[1], row[2])
			}
		}
	}
}

// TestQuadraticContractionLaw verifies the small-amplitude expansion
// a' = a − (2/3)a²/μ: the coefficient is 2/3 independent of C0 and C1.
func TestQuadraticContractionLaw(t *testing.T) {
	for _, tc := range []struct {
		c0, c1, mu float64
	}{
		{2, 0.8, 10},
		{1, 0.3, 10},
		{5, 2, 4},
		{0.7, 1.5, 25},
	} {
		law := control.AIMD{C0: tc.c0, C1: tc.c1, QHat: 20}
		c, err := QuadraticContractionCoefficient(law, tc.mu)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if math.Abs(c-2.0/3) > 0.02 {
			t.Errorf("C0=%v C1=%v μ=%v: coefficient %v, want 2/3", tc.c0, tc.c1, tc.mu, c)
		}
	}
}

// TestReturnMapResidualIsCubic: the error of the quadratic model
// shrinks like a³ — halving a cuts the residual by ~8.
func TestReturnMapResidualIsCubic(t *testing.T) {
	law := control.AIMD{C0: 2, C1: 0.8, QHat: 20}
	const mu = 10.0
	resid := func(a float64) float64 {
		ap, err := ReturnMap(law, mu, a)
		if err != nil {
			t.Fatal(err)
		}
		model := a - (2.0/3)*a*a/mu
		return math.Abs(ap - model)
	}
	r1 := resid(0.4)
	r2 := resid(0.2)
	if r2 == 0 {
		t.Skip("residual below resolution")
	}
	ratio := r1 / r2
	if ratio < 5 || ratio > 12 {
		t.Errorf("residual ratio %v for halved amplitude, want ~8 (cubic)", ratio)
	}
}

// TestReturnMapMatchesIteratedCrossings: iterating the return map must
// reproduce the amplitude sequence of a full traced spiral.
func TestReturnMapMatchesIteratedCrossings(t *testing.T) {
	law := control.AIMD{C0: 2, C1: 0.8, QHat: 20}
	const mu = 10.0
	path, err := TraceExact(law, mu, Point{Q: law.QHat, Lambda: mu + 5}, 2000, 100000)
	if err != nil {
		t.Fatal(err)
	}
	ups := path.UpCrossings
	if len(ups) < 5 {
		t.Fatalf("only %d crossings", len(ups))
	}
	a := 5.0
	for k := 0; k < 5; k++ {
		ap, err := ReturnMap(law, mu, a)
		if err != nil {
			t.Fatal(err)
		}
		traced := ups[k].Lambda - mu
		if math.Abs(ap-traced) > 1e-6*(1+traced) {
			t.Fatalf("revolution %d: map %v vs traced %v", k, ap, traced)
		}
		a = ap
	}
}

func TestContractionTable(t *testing.T) {
	law := control.AIMD{C0: 2, C1: 0.8, QHat: 20}
	rows, err := ContractionTable(law, 10, []float64{0.5, 1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r[1] >= r[0] {
			t.Errorf("a=%v: no contraction (a'=%v)", r[0], r[1])
		}
		if math.Abs(r[2]-r[1]/r[0]) > 1e-12 {
			t.Errorf("ratio column inconsistent: %v", r)
		}
	}
	// Larger amplitudes contract faster (ratio decreases with a).
	for i := 1; i < len(rows); i++ {
		if rows[i][2] >= rows[i-1][2] {
			t.Errorf("contraction ratio should decrease with amplitude: %v then %v", rows[i-1], rows[i])
		}
	}
}

// Property: contraction holds for random parameters and amplitudes.
func TestReturnMapContractionProperty(t *testing.T) {
	f := func(c0Raw, c1Raw, aRaw uint16) bool {
		c0 := float64(c0Raw%400)/100 + 0.05
		c1 := float64(c1Raw%300)/100 + 0.05
		a := float64(aRaw%2000)/100 + 0.01
		law := control.AIMD{C0: c0, C1: c1, QHat: 15}
		ap, err := ReturnMap(law, 10, a)
		if err != nil {
			return false
		}
		return ap > 0 && ap < a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkReturnMap(b *testing.B) {
	law := control.AIMD{C0: 2, C1: 0.8, QHat: 20}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ReturnMap(law, 10, 3); err != nil {
			b.Fatal(err)
		}
	}
}
