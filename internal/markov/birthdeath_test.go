package markov

import (
	"math"
	"testing"
	"testing/quick"
)

// mm1k returns the birth-death chain of an M/M/1/K queue: arrivals at
// rate lambda while fewer than k customers are present, service at
// rate mu, states 0..k.
func mm1k(lambda, mu float64, k int) *BirthDeath {
	bd := &BirthDeath{Birth: make([]float64, k+1), Death: make([]float64, k+1)}
	for i := range bd.Birth {
		if i < k {
			bd.Birth[i] = lambda
		}
		if i > 0 {
			bd.Death[i] = mu
		}
	}
	return bd
}

func TestMM1KStationaryMatchesClosedForm(t *testing.T) {
	for _, tc := range []struct {
		lam, mu float64
		k       int
	}{
		{4, 5, 10}, {5, 4, 8}, {3, 3, 6}, {0.5, 10, 20},
	} {
		bd := mm1k(tc.lam, tc.mu, tc.k)
		pi, err := bd.Stationary()
		if err != nil {
			t.Fatal(err)
		}
		want, err := MM1KStationary(tc.lam, tc.mu, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		for i := range pi {
			if math.Abs(pi[i]-want[i]) > 1e-12 {
				t.Errorf("λ=%v μ=%v K=%d state %d: %v vs closed form %v",
					tc.lam, tc.mu, tc.k, i, pi[i], want[i])
			}
		}
	}
}

func TestMM1KStationaryEqualRates(t *testing.T) {
	// ρ = 1 is the uniform distribution (the closed form has a 0/0
	// that must be special-cased).
	p, err := MM1KStationary(2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range p {
		if math.Abs(v-0.2) > 1e-12 {
			t.Errorf("state %d: %v, want 0.2", i, v)
		}
	}
}

func TestStationaryDetailedBalance(t *testing.T) {
	const n = 12
	bd := &BirthDeath{Birth: make([]float64, n), Death: make([]float64, n)}
	for i := 0; i < n; i++ {
		if i < n-1 {
			bd.Birth[i] = 3 / (1 + float64(i))
		}
		if i > 0 {
			bd.Death[i] = 1 + 0.5*float64(i)
		}
	}
	pi, err := bd.Stationary()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < bd.N()-1; i++ {
		lhs := pi[i] * bd.Birth[i]
		rhs := pi[i+1] * bd.Death[i+1]
		if math.Abs(lhs-rhs) > 1e-14*(lhs+rhs+1e-300) {
			t.Errorf("detailed balance broken at %d: %v vs %v", i, lhs, rhs)
		}
	}
}

func TestStationaryRejectsReducibleChain(t *testing.T) {
	bd := &BirthDeath{Birth: []float64{0, 1, 0}, Death: []float64{0, 1, 1}}
	if _, err := bd.Stationary(); err == nil {
		t.Error("zero birth rate: want irreducibility error")
	}
	bd2 := &BirthDeath{Birth: []float64{1, 1, 0}, Death: []float64{0, 0, 1}}
	if _, err := bd2.Stationary(); err == nil {
		t.Error("zero death rate: want irreducibility error")
	}
}

func TestTransientConvergesToStationary(t *testing.T) {
	bd := mm1k(4, 5, 15)
	p0 := make([]float64, bd.N())
	p0[0] = 1
	c, err := bd.Chain()
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Transient(p0, 400, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := bd.Stationary()
	if err != nil {
		t.Fatal(err)
	}
	for i := range pi {
		if math.Abs(p[i]-pi[i]) > 1e-7 {
			t.Errorf("state %d: transient %v vs stationary %v", i, p[i], pi[i])
		}
	}
}

func TestTransientMonotoneMeanFromEmpty(t *testing.T) {
	// Starting empty, E[Q](t) rises monotonically toward the
	// stationary mean for an M/M/1/K (stochastic monotonicity).
	bd := mm1k(4.5, 5, 25)
	p0 := make([]float64, bd.N())
	p0[0] = 1
	vals := make([]float64, bd.N())
	for i := range vals {
		vals[i] = float64(i)
	}
	prev := -1.0
	c, err := bd.Chain()
	if err != nil {
		t.Fatal(err)
	}
	series, err := c.TransientSeries(p0, []float64{0.5, 1, 2, 4, 8, 16, 32}, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range series {
		mean, _, err := MeanVar(p, vals)
		if err != nil {
			t.Fatal(err)
		}
		if mean < prev-1e-9 {
			t.Errorf("mean decreased at step %d: %v after %v", i, mean, prev)
		}
		prev = mean
	}
}

// Property: for random M/M/1/K parameters, the uniformization
// transient at large t matches the product-form stationary law.
func TestMM1KTransientStationaryProperty(t *testing.T) {
	f := func(lamRaw, muRaw uint8, kRaw uint8) bool {
		lam := 0.5 + float64(lamRaw)/32 // (0.5, 8.5)
		mu := 0.5 + float64(muRaw)/32   // (0.5, 8.5)
		k := 2 + int(kRaw)%10           // 2..11
		bd := mm1k(lam, mu, k)
		p0 := make([]float64, bd.N())
		p0[bd.N()/2] = 1
		// t = 600/min(λ,μ) is far beyond the relaxation time of a
		// chain this small.
		tt := 600 / math.Min(lam, mu)
		c, err := bd.Chain()
		if err != nil {
			return false
		}
		p, err := c.Transient(p0, tt, 1e-10)
		if err != nil {
			return false
		}
		pi, err := bd.Stationary()
		if err != nil {
			return false
		}
		for i := range pi {
			if math.Abs(p[i]-pi[i]) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestBirthDeathValidate(t *testing.T) {
	bad := &BirthDeath{Birth: []float64{1, math.NaN()}, Death: []float64{0, 1}}
	if err := bad.Validate(); err == nil {
		t.Error("NaN birth rate: want error")
	}
	mismatch := &BirthDeath{Birth: []float64{1}, Death: []float64{0, 1}}
	if err := mismatch.Validate(); err == nil {
		t.Error("length mismatch: want error")
	}
	tiny := &BirthDeath{Birth: []float64{1}, Death: []float64{1}}
	if err := tiny.Validate(); err == nil {
		t.Error("single state: want error")
	}
}
