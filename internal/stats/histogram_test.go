package stats

import (
	"math"
	"testing"
	"testing/quick"

	"fpcc/internal/rng"
)

func TestHistogram1DValidation(t *testing.T) {
	if _, err := NewHistogram1D(0, 1, 0); err == nil {
		t.Error("accepted zero bins")
	}
	if _, err := NewHistogram1D(1, 1, 4); err == nil {
		t.Error("accepted empty range")
	}
	if _, err := NewHistogram1D(0, math.Inf(1), 4); err == nil {
		t.Error("accepted infinite range")
	}
}

func TestHistogram1DBinning(t *testing.T) {
	h, err := NewHistogram1D(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	h.Add(-1)   // underflow
	h.Add(0)    // bin 0
	h.Add(1.99) // bin 0
	h.Add(5)    // bin 2
	h.Add(9.99) // bin 4
	h.Add(10)   // overflow (half-open range)
	h.Add(15)   // overflow
	if h.Underflow != 1 {
		t.Errorf("Underflow = %d, want 1", h.Underflow)
	}
	if h.Overflow != 2 {
		t.Errorf("Overflow = %d, want 2", h.Overflow)
	}
	if h.Counts[0] != 2 || h.Counts[2] != 1 || h.Counts[4] != 1 {
		t.Errorf("Counts = %v", h.Counts)
	}
	if h.Total() != 7 {
		t.Errorf("Total = %d, want 7", h.Total())
	}
	if got := h.BinCenter(2); got != 5 {
		t.Errorf("BinCenter(2) = %v, want 5", got)
	}
}

func TestHistogram1DDensityNormalization(t *testing.T) {
	h, err := NewHistogram1D(0, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	const n = 100000
	for i := 0; i < n; i++ {
		h.Add(r.Float64())
	}
	d := h.Density()
	var integral float64
	for _, v := range d {
		integral += v * h.BinWidth()
	}
	if math.Abs(integral-1) > 1e-9 {
		t.Fatalf("density integral = %v, want 1", integral)
	}
	// Uniform density should be ~1 everywhere.
	for i, v := range d {
		if math.Abs(v-1) > 0.05 {
			t.Fatalf("bin %d density %v, want ~1", i, v)
		}
	}
	if m := h.Mean(); math.Abs(m-0.5) > 0.01 {
		t.Fatalf("Mean = %v, want ~0.5", m)
	}
}

func TestHistogram1DEmpty(t *testing.T) {
	h, err := NewHistogram1D(0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range h.Density() {
		if v != 0 {
			t.Fatal("empty histogram density not zero")
		}
	}
	if !math.IsNaN(h.Mean()) {
		t.Fatal("empty histogram Mean should be NaN")
	}
}

func TestL1DensityDistance(t *testing.T) {
	p := []float64{1, 0, 0, 0}
	q := []float64{0, 0, 0, 1}
	// With cell = 1 these are unit masses on disjoint cells: distance 2.
	got, err := L1DensityDistance(p, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("L1 = %v, want 2", got)
	}
	same, err := L1DensityDistance(p, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if same != 0 {
		t.Fatalf("identical L1 = %v, want 0", same)
	}
	if _, err := L1DensityDistance(p, q[:3], 1); err == nil {
		t.Error("accepted mismatched lengths")
	}
	if _, err := L1DensityDistance(p, q, 0); err == nil {
		t.Error("accepted zero cell")
	}
}

// Property: histogram total always equals in-range + under + over.
func TestHistogramAccountingProperty(t *testing.T) {
	f := func(raw []int16) bool {
		h, err := NewHistogram1D(-10, 10, 16)
		if err != nil {
			return false
		}
		for _, r := range raw {
			h.Add(float64(r) / 100)
		}
		var in int
		for _, c := range h.Counts {
			in += c
		}
		return h.Total() == in+h.Underflow+h.Overflow && h.Total() == len(raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
