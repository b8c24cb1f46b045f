package markov

import (
	"math"
	"testing"
	"testing/quick"
)

// twoState builds the standard two-state chain 0⇄1 with rates a (0→1)
// and b (1→0); its transient law is known in closed form.
func twoState(t *testing.T, a, b float64) *Chain {
	t.Helper()
	c, err := NewChain(2)
	if err != nil {
		t.Fatalf("NewChain: %v", err)
	}
	if err := c.AddRate(0, 1, a); err != nil {
		t.Fatalf("AddRate: %v", err)
	}
	if err := c.AddRate(1, 0, b); err != nil {
		t.Fatalf("AddRate: %v", err)
	}
	return c
}

func TestNewChainRejectsBadSizes(t *testing.T) {
	for _, n := range []int{0, -1, -100} {
		if _, err := NewChain(n); err == nil {
			t.Errorf("NewChain(%d): want error", n)
		}
	}
}

func TestAddRateValidation(t *testing.T) {
	c, err := NewChain(3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		i, j int
		r    float64
	}{
		{-1, 0, 1}, {0, 3, 1}, {1, 1, 1}, {0, 1, 0}, {0, 1, -2},
		{0, 1, math.Inf(1)}, {0, 1, math.NaN()},
	}
	for _, tc := range cases {
		if err := c.AddRate(tc.i, tc.j, tc.r); err == nil {
			t.Errorf("AddRate(%d,%d,%v): want error", tc.i, tc.j, tc.r)
		}
	}
}

func TestTransientTwoStateClosedForm(t *testing.T) {
	// p1(t) = π1 + (p1(0) − π1)·e^{−(a+b)t}, π1 = a/(a+b).
	a, b := 3.0, 1.5
	c := twoState(t, a, b)
	pi1 := a / (a + b)
	for _, tt := range []float64{0, 0.01, 0.1, 0.5, 1, 5, 20} {
		p, err := c.Transient([]float64{1, 0}, tt, 1e-12)
		if err != nil {
			t.Fatalf("Transient(t=%v): %v", tt, err)
		}
		want := pi1 + (0-pi1)*math.Exp(-(a+b)*tt)
		if math.Abs(p[1]-want) > 1e-9 {
			t.Errorf("t=%v: p1 = %.12f, want %.12f", tt, p[1], want)
		}
	}
}

func TestTransientPureBirthIsPoisson(t *testing.T) {
	// A pure birth chain at rate λ started at 0 is a Poisson counting
	// process: p_k(t) = e^{−λt}(λt)^k/k! (with the last state
	// absorbing the tail). This exercises the uniformization weights
	// directly against the Poisson pmf.
	const lam, tt = 4.0, 2.5
	n := 60
	c, err := NewChain(n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n-1; i++ {
		if err := c.AddRate(i, i+1, lam); err != nil {
			t.Fatal(err)
		}
	}
	p0 := make([]float64, n)
	p0[0] = 1
	p, err := c.Transient(p0, tt, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	m := lam * tt
	logP := -m
	for k := 0; k < 30; k++ {
		want := math.Exp(logP)
		if math.Abs(p[k]-want) > 1e-9 {
			t.Errorf("k=%d: p = %.12f, want Poisson %.12f", k, p[k], want)
		}
		logP += math.Log(m / float64(k+1))
	}
}

func TestTransientConservesMass(t *testing.T) {
	c := twoState(t, 0.7, 0.2)
	p, err := c.Transient([]float64{0.25, 0.75}, 3.7, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range p {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("mass = %.15f, want 1", sum)
	}
}

func TestTransientZeroTimeIsIdentity(t *testing.T) {
	c := twoState(t, 1, 1)
	p0 := []float64{0.3, 0.7}
	p, err := c.Transient(p0, 0, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p {
		if p[i] != p0[i] {
			t.Errorf("p[%d] = %v, want %v", i, p[i], p0[i])
		}
	}
}

func TestTransientLargeLambdaT(t *testing.T) {
	// Λt = 2000·5 = 10⁴ exercises the log-space Poisson weights: naive
	// e^{−Λt} underflows at Λt ≳ 745.
	c := twoState(t, 2000, 1000)
	p, err := c.Transient([]float64{1, 0}, 5, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	want := 2000.0 / 3000.0
	if math.Abs(p[1]-want) > 1e-8 {
		t.Errorf("p1 = %.10f, want stationary %.10f", p[1], want)
	}
}

func TestTransientInvalidInputs(t *testing.T) {
	c := twoState(t, 1, 1)
	if _, err := c.Transient([]float64{1}, 1, 1e-9); err == nil {
		t.Error("short distribution: want error")
	}
	if _, err := c.Transient([]float64{0.5, 0.4}, 1, 1e-9); err == nil {
		t.Error("non-normalized distribution: want error")
	}
	if _, err := c.Transient([]float64{1, 0}, -1, 1e-9); err == nil {
		t.Error("negative time: want error")
	}
	if _, err := c.Transient([]float64{1, 0}, 1, 0); err == nil {
		t.Error("zero tolerance: want error")
	}
	if _, err := c.Transient([]float64{1, 0}, 1, 1.5); err == nil {
		t.Error("tolerance above 1: want error")
	}
	if _, err := c.Transient([]float64{-0.5, 1.5}, 1, 1e-9); err == nil {
		t.Error("negative probability: want error")
	}
}

func TestTransientSeriesMatchesDirect(t *testing.T) {
	c := twoState(t, 2, 0.5)
	p0 := []float64{1, 0}
	ts := []float64{0.2, 0.7, 1.9}
	series, err := c.TransientSeries(p0, ts, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	for i, tt := range ts {
		direct, err := c.Transient(p0, tt, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		for j := range direct {
			if math.Abs(series[i][j]-direct[j]) > 1e-9 {
				t.Errorf("t=%v state %d: series %.12f vs direct %.12f", tt, j, series[i][j], direct[j])
			}
		}
	}
}

func TestTransientSeriesRejectsDecreasingTimes(t *testing.T) {
	c := twoState(t, 1, 1)
	if _, err := c.TransientSeries([]float64{1, 0}, []float64{1, 0.5}, 1e-9); err == nil {
		t.Error("decreasing times: want error")
	}
	if _, err := c.TransientSeries([]float64{1, 0}, nil, 1e-9); err == nil {
		t.Error("empty times: want error")
	}
}

// Property: for random irreducible 3-state chains, the transient law
// at a random time is a valid distribution.
func TestTransientPropertyRandomChains(t *testing.T) {
	f := func(r01, r10, r12, r21, r02, r20 uint8, tRaw uint8) bool {
		// Map to rates in (0.1, 25.7) and time in (0, 5.1].
		rate := func(u uint8) float64 { return 0.1 + float64(u)/10 }
		c, err := NewChain(3)
		if err != nil {
			return false
		}
		for _, e := range []struct {
			i, j int
			r    float64
		}{
			{0, 1, rate(r01)}, {1, 0, rate(r10)}, {1, 2, rate(r12)},
			{2, 1, rate(r21)}, {0, 2, rate(r02)}, {2, 0, rate(r20)},
		} {
			if err := c.AddRate(e.i, e.j, e.r); err != nil {
				return false
			}
		}
		tt := 0.02 * (float64(tRaw) + 1)
		p, err := c.Transient([]float64{1, 0, 0}, tt, 1e-10)
		if err != nil {
			return false
		}
		var sum float64
		for _, v := range p {
			if v < -1e-15 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) <= 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPoissonTruncationCoversMass(t *testing.T) {
	for _, m := range []float64{0.1, 1, 10, 100, 5000} {
		k, err := poissonTruncation(m, 1e-10)
		if err != nil {
			t.Fatalf("m=%v: %v", m, err)
		}
		// Sum the pmf up to k in log space and check coverage.
		var mass float64
		logP := -m
		for j := 0; j <= k; j++ {
			mass += math.Exp(logP)
			logP += math.Log(m / float64(j+1))
		}
		if mass < 1-1e-9 {
			t.Errorf("m=%v: truncation at %d covers only %.12f", m, k, mass)
		}
	}
}

func TestPoissonTruncationRejectsHugeM(t *testing.T) {
	if _, err := poissonTruncation(1e13, 1e-9); err == nil {
		t.Error("want error for enormous Λt")
	}
}

func TestMeanVar(t *testing.T) {
	mean, v, err := MeanVar([]float64{0.5, 0.5}, []float64{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-1) > 1e-15 || math.Abs(v-1) > 1e-15 {
		t.Errorf("mean=%v var=%v, want 1, 1", mean, v)
	}
	if _, _, err := MeanVar([]float64{1}, []float64{0, 1}); err == nil {
		t.Error("length mismatch: want error")
	}
}
