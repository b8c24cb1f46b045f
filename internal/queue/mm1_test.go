package queue

import (
	"math"
	"testing"
	"testing/quick"

	"fpcc/internal/markov"
)

// stationary solves a birth-death chain with markov.BirthDeath, the
// module's one birth-death solver; the BirthDeath tests below hold it
// to the queueing results.
func stationary(birth, death []float64) ([]float64, error) {
	return (&markov.BirthDeath{Birth: birth, Death: death}).Stationary()
}

func TestNewMM1Validation(t *testing.T) {
	if _, err := NewMM1(-1, 1); err == nil {
		t.Error("accepted negative lambda")
	}
	if _, err := NewMM1(1, 0); err == nil {
		t.Error("accepted zero mu")
	}
	if _, err := NewMM1(math.Inf(1), 1); err == nil {
		t.Error("accepted infinite lambda")
	}
}

func TestMM1KnownValues(t *testing.T) {
	q, err := NewMM1(5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if q.Rho() != 0.5 {
		t.Fatalf("Rho = %v, want 0.5", q.Rho())
	}
	if !q.Stable() {
		t.Fatal("rho=0.5 should be stable")
	}
	if got := q.MeanNumber(); got != 1 {
		t.Fatalf("L = %v, want 1", got)
	}
	if got := q.VarNumber(); got != 2 {
		t.Fatalf("Var = %v, want 2", got)
	}
	if got := q.ProbN(0); got != 0.5 {
		t.Fatalf("P(0) = %v, want 0.5", got)
	}
	if got := q.ProbN(2); math.Abs(got-0.125) > 1e-12 {
		t.Fatalf("P(2) = %v, want 0.125", got)
	}
	if got := q.ProbN(-1); got != 0 {
		t.Fatalf("P(-1) = %v, want 0", got)
	}
	if got := q.TailProb(2); math.Abs(got-0.125) > 1e-12 {
		t.Fatalf("P(N>2) = %v, want 0.125", got)
	}
	if got := q.TailProb(-1); got != 1 {
		t.Fatalf("P(N>-1) = %v, want 1", got)
	}
	if got := q.MeanSojourn(); got != 0.2 {
		t.Fatalf("W = %v, want 0.2", got)
	}
}

func TestMM1Unstable(t *testing.T) {
	q, err := NewMM1(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if q.Stable() {
		t.Fatal("rho=1 should be unstable")
	}
	if !math.IsInf(q.MeanNumber(), 1) || !math.IsInf(q.VarNumber(), 1) || !math.IsInf(q.MeanSojourn(), 1) {
		t.Fatal("unstable queue should report +Inf moments")
	}
	if !math.IsNaN(q.ProbN(0)) || !math.IsNaN(q.TailProb(0)) {
		t.Fatal("unstable queue should report NaN probabilities")
	}
}

// Property: Little's law L = λ·W holds for every stable queue.
func TestLittlesLawProperty(t *testing.T) {
	f := func(lamRaw, muRaw uint16) bool {
		mu := float64(muRaw%1000)/10 + 1
		lam := float64(lamRaw%1000) / 10
		if lam >= mu {
			return true
		}
		q, err := NewMM1(lam, mu)
		if err != nil {
			return false
		}
		l := q.MeanNumber()
		w := q.MeanSojourn()
		return math.Abs(l-lam*w) < 1e-9*(1+l)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: ProbN sums to ~1 over a long prefix for stable queues.
func TestProbNormalizationProperty(t *testing.T) {
	f := func(rhoRaw uint8) bool {
		rho := float64(rhoRaw%90)/100 + 0.01
		q, err := NewMM1(rho*10, 10)
		if err != nil {
			return false
		}
		var sum float64
		for n := 0; n < 2000; n++ {
			sum += q.ProbN(n)
		}
		return math.Abs(sum-1) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBirthDeathMatchesMM1K(t *testing.T) {
	// M/M/1/4 with lambda=3, mu=6: pi_n ∝ rho^n truncated.
	const lam, mu = 3.0, 6.0
	const k = 5 // states 0..4
	birth := []float64{lam, lam, lam, lam, 0}
	death := []float64{0, mu, mu, mu, mu}
	pi, err := stationary(birth, death)
	if err != nil {
		t.Fatal(err)
	}
	rho := lam / mu
	var norm float64
	for n := 0; n < k; n++ {
		norm += math.Pow(rho, float64(n))
	}
	for n := 0; n < k; n++ {
		want := math.Pow(rho, float64(n)) / norm
		if math.Abs(pi[n]-want) > 1e-12 {
			t.Fatalf("pi[%d] = %v, want %v", n, pi[n], want)
		}
	}
}

func TestBirthDeathValidation(t *testing.T) {
	if _, err := stationary(nil, nil); err == nil {
		t.Error("accepted empty chain")
	}
	if _, err := stationary([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("accepted mismatched lengths")
	}
	if _, err := stationary([]float64{1, 1}, []float64{0, 0}); err == nil {
		t.Error("accepted zero death rate")
	}
	if _, err := stationary([]float64{-1, 1}, []float64{0, 1}); err == nil {
		t.Error("accepted negative birth rate")
	}
}

// Property: stationary distribution is a probability vector satisfying
// detailed balance.
func TestBirthDeathDetailedBalanceProperty(t *testing.T) {
	f := func(seed uint16) bool {
		n := int(seed%8) + 2
		birth := make([]float64, n)
		death := make([]float64, n)
		x := uint64(seed) + 1
		next := func() float64 {
			x = x*6364136223846793005 + 1442695040888963407
			return float64(x%1000)/100 + 0.1
		}
		for i := 0; i < n; i++ {
			birth[i] = next()
			death[i] = next()
		}
		pi, err := stationary(birth, death)
		if err != nil {
			return false
		}
		var sum float64
		for _, p := range pi {
			if p < 0 {
				return false
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
		for i := 1; i < n; i++ {
			if math.Abs(pi[i-1]*birth[i-1]-pi[i]*death[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
