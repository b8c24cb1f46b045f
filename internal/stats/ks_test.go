package stats

import (
	"math"
	"testing"

	"fpcc/internal/rng"
)

func TestKSTwoSampleSameSource(t *testing.T) {
	r := rng.New(3)
	a := make([]float64, 1500)
	b := make([]float64, 1700)
	for i := range a {
		a[i] = r.Norm()
	}
	for i := range b {
		b[i] = r.Norm()
	}
	_, p, err := KSTwoSample(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.01 {
		t.Errorf("p = %v rejects identical distributions", p)
	}
}

func TestKSTwoSampleShiftedSource(t *testing.T) {
	r := rng.New(4)
	a := make([]float64, 1500)
	b := make([]float64, 1500)
	for i := range a {
		a[i] = r.Norm()
	}
	for i := range b {
		b[i] = r.Norm() + 0.5
	}
	d, p, err := KSTwoSample(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d < 0.1 || p > 1e-6 {
		t.Errorf("shifted samples not detected: D=%v p=%v", d, p)
	}
	if _, _, err := KSTwoSample(nil, b); err == nil {
		t.Error("empty sample: want error")
	}
}

func TestKSPValueBounds(t *testing.T) {
	if p := ksPValue(0); p != 1 {
		t.Errorf("ksPValue(0) = %v, want 1", p)
	}
	if p := ksPValue(20); p != 0 {
		t.Errorf("ksPValue(20) = %v, want 0", p)
	}
	// Known value: Q(1.0) ≈ 0.27.
	if p := ksPValue(1); math.Abs(p-0.27) > 0.01 {
		t.Errorf("ksPValue(1) = %v, want ≈ 0.27", p)
	}
	// Monotone decreasing.
	prev := 1.0
	for l := 0.1; l < 3; l += 0.1 {
		p := ksPValue(l)
		if p > prev+1e-12 {
			t.Fatalf("ksPValue not monotone at λ=%v", l)
		}
		prev = p
	}
}

func TestBatchMeansIIDCoverage(t *testing.T) {
	// For iid normal data the 95% interval should cover the true mean
	// in the vast majority of replications.
	r := rng.New(5)
	covered := 0
	const reps = 200
	for rep := 0; rep < reps; rep++ {
		xs := make([]float64, 1000)
		for i := range xs {
			xs[i] = 3 + 2*r.Norm()
		}
		mean, hw, err := BatchMeans(xs, 20, 1.96)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(mean-3) <= hw {
			covered++
		}
	}
	frac := float64(covered) / reps
	if frac < 0.88 {
		t.Errorf("coverage %v, want ≈ 0.95", frac)
	}
}

func TestBatchMeansCorrelatedSeriesWiderInterval(t *testing.T) {
	// An AR(1)-style positively correlated series must produce a wider
	// interval than shuffle-equivalent iid noise of the same variance.
	r := rng.New(6)
	n := 4000
	ar := make([]float64, n)
	prev := 0.0
	for i := range ar {
		prev = 0.95*prev + r.Norm()
		ar[i] = prev
	}
	iid := make([]float64, n)
	for i := range iid {
		iid[i] = r.Norm()
	}
	_, hwAR, err := BatchMeans(ar, 20, 1.96)
	if err != nil {
		t.Fatal(err)
	}
	_, hwIID, err := BatchMeans(iid, 20, 1.96)
	if err != nil {
		t.Fatal(err)
	}
	if hwAR < 2*hwIID {
		t.Errorf("correlated half-width %v not clearly wider than iid %v", hwAR, hwIID)
	}
}

func TestBatchMeansValidation(t *testing.T) {
	xs := make([]float64, 100)
	if _, _, err := BatchMeans(xs, 1, 1.96); err == nil {
		t.Error("one batch: want error")
	}
	if _, _, err := BatchMeans(xs[:3], 2, 1.96); err == nil {
		t.Error("short series: want error")
	}
	if _, _, err := BatchMeans(xs, 10, 0); err == nil {
		t.Error("zero z: want error")
	}
}
