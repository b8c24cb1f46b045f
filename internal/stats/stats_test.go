package stats

import (
	"math"
	"testing"
	"testing/quick"

	"fpcc/internal/rng"
)

func TestMomentsBasics(t *testing.T) {
	var m Moments
	if !math.IsNaN(m.Mean()) || !math.IsNaN(m.Variance()) || !math.IsNaN(m.Min()) || !math.IsNaN(m.Max()) {
		t.Fatal("empty Moments should report NaN")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		m.Add(x)
	}
	if m.Count() != 8 {
		t.Fatalf("Count = %d", m.Count())
	}
	if got := m.Mean(); got != 5 {
		t.Fatalf("Mean = %v, want 5", got)
	}
	if got := m.Variance(); got != 4 {
		t.Fatalf("Variance = %v, want 4", got)
	}
	if got := m.StdDev(); got != 2 {
		t.Fatalf("StdDev = %v, want 2", got)
	}
	if m.Min() != 2 || m.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v, want 2/9", m.Min(), m.Max())
	}
}

// Property: Welford mean/variance match the naive two-pass formulas.
func TestMomentsMatchNaive(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		var m Moments
		var sum float64
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r) / 7
			m.Add(xs[i])
			sum += xs[i]
		}
		mean := sum / float64(len(xs))
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		wantVar := ss / float64(len(xs))
		return math.Abs(m.Mean()-mean) < 1e-9*(1+math.Abs(mean)) &&
			math.Abs(m.Variance()-wantVar) < 1e-6*(1+wantVar)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: merging arbitrarily split shards reproduces the
// single-pass accumulator over the whole stream.
func TestMomentsMergeMatchesSinglePass(t *testing.T) {
	f := func(raw []int16, splitRaw uint8) bool {
		var whole Moments
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r) / 7
			whole.Add(xs[i])
		}
		split := 0
		if len(xs) > 0 {
			split = int(splitRaw) % (len(xs) + 1)
		}
		var a, b Moments
		for _, x := range xs[:split] {
			a.Add(x)
		}
		for _, x := range xs[split:] {
			b.Add(x)
		}
		a.Merge(b)
		if whole.Count() == 0 {
			return a.Count() == 0
		}
		close := func(got, want float64) bool {
			return math.Abs(got-want) < 1e-9*(1+math.Abs(want))
		}
		return a.Count() == whole.Count() &&
			close(a.Mean(), whole.Mean()) &&
			close(a.Variance(), whole.Variance()) &&
			a.Min() == whole.Min() && a.Max() == whole.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Merging into or from an empty accumulator is the identity, and a
// many-way chunked merge matches one pass (the meanfield SoA layout:
// fixed-size chunks, merged in chunk order).
func TestMomentsMergeChunked(t *testing.T) {
	r := rng.New(42)
	xs := make([]float64, 10000)
	var whole Moments
	for i := range xs {
		xs[i] = r.Norm()*3 + 1
		whole.Add(xs[i])
	}
	var merged Moments
	merged.Merge(Moments{}) // empty into empty: stays empty
	if merged.Count() != 0 {
		t.Fatal("merge of empties is not empty")
	}
	const chunk = 512
	for lo := 0; lo < len(xs); lo += chunk {
		hi := lo + chunk
		if hi > len(xs) {
			hi = len(xs)
		}
		var part Moments
		for _, x := range xs[lo:hi] {
			part.Add(x)
		}
		merged.Merge(part)
	}
	merged.Merge(Moments{}) // empty shard is a no-op
	if merged.Count() != whole.Count() {
		t.Fatalf("Count = %d, want %d", merged.Count(), whole.Count())
	}
	if math.Abs(merged.Mean()-whole.Mean()) > 1e-12 {
		t.Fatalf("Mean = %v, want %v", merged.Mean(), whole.Mean())
	}
	if math.Abs(merged.Variance()-whole.Variance()) > 1e-9 {
		t.Fatalf("Variance = %v, want %v", merged.Variance(), whole.Variance())
	}
	if merged.Min() != whole.Min() || merged.Max() != whole.Max() {
		t.Fatalf("Min/Max = %v/%v, want %v/%v", merged.Min(), merged.Max(), whole.Min(), whole.Max())
	}
}

func TestWeightedMoments(t *testing.T) {
	var m WeightedMoments
	if !math.IsNaN(m.Mean()) {
		t.Fatal("empty WeightedMoments should report NaN mean")
	}
	// Weighted observations equivalent to {1, 1, 5}.
	m.Add(1, 2)
	m.Add(5, 1)
	if got, want := m.Mean(), 7.0/3; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Mean = %v, want %v", got, want)
	}
	wantVar := (2*(1-7.0/3)*(1-7.0/3) + (5-7.0/3)*(5-7.0/3)) / 3
	if got := m.Variance(); math.Abs(got-wantVar) > 1e-12 {
		t.Fatalf("Variance = %v, want %v", got, wantVar)
	}
	if m.TotalWeight() != 3 {
		t.Fatalf("TotalWeight = %v", m.TotalWeight())
	}
	// Non-positive weights are ignored.
	m.Add(100, 0)
	m.Add(100, -5)
	if m.TotalWeight() != 3 {
		t.Fatal("non-positive weight was not ignored")
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{1, 1, 1, 1}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("equal allocations: %v, want 1", got)
	}
	if got := JainIndex([]float64{1, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("single user: %v, want 0.25", got)
	}
	if !math.IsNaN(JainIndex(nil)) {
		t.Fatal("empty input should be NaN")
	}
	if !math.IsNaN(JainIndex([]float64{0, 0})) {
		t.Fatal("all-zero input should be NaN")
	}
}

// Property: Jain index always lies in [1/n, 1] for non-negative
// allocations with at least one positive entry.
func TestJainIndexRangeProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		any := false
		for i, r := range raw {
			xs[i] = float64(r)
			if r > 0 {
				any = true
			}
		}
		if !any {
			return true
		}
		j := JainIndex(xs)
		n := float64(len(xs))
		return j >= 1/n-1e-12 && j <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 5, 4}
	if got := Quantile(xs, 0); got != 1 {
		t.Fatalf("q0 = %v, want 1", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Fatalf("q1 = %v, want 5", got)
	}
	if got := Quantile(xs, 0.5); got != 3 {
		t.Fatalf("median = %v, want 3", got)
	}
	if got := Quantile(xs, 0.25); got != 2 {
		t.Fatalf("q25 = %v, want 2", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile should be NaN")
	}
	// Input must not be reordered.
	if xs[0] != 3 {
		t.Fatal("Quantile mutated its input")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range q did not panic")
		}
	}()
	Quantile(xs, 1.5)
}

// TestMomentsOfRebuildsAdd: an accumulator rebuilt from the running
// state of an Add loop is the accumulator that loop left, and keeps
// accumulating identically.
func TestMomentsOfRebuildsAdd(t *testing.T) {
	var m Moments
	for i := 0; i < 100; i++ {
		m.Add(math.Sin(float64(i)) * 3)
	}
	r := MomentsOf(m.n, m.mean, m.m2, m.min, m.max)
	if r != m {
		t.Fatalf("MomentsOf rebuilt %+v, want %+v", r, m)
	}
	m.Add(7)
	r.Add(7)
	if r != m {
		t.Fatalf("after one more Add: %+v, want %+v", r, m)
	}
}
