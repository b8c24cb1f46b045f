package markov

import (
	"math"
	"testing"

	"fpcc/internal/control"
)

func testLaw(t *testing.T) control.AIMD {
	t.Helper()
	law, err := control.NewAIMD(2, 0.8, 10)
	if err != nil {
		t.Fatal(err)
	}
	return law
}

func TestNewControlledQueueValidation(t *testing.T) {
	law := testLaw(t)
	cases := []struct {
		name string
		fn   func() error
	}{
		{"nil law", func() error {
			_, err := NewControlledQueue(nil, 5, 20, 0, 10, 11)
			return err
		}},
		{"bad mu", func() error {
			_, err := NewControlledQueue(law, 0, 20, 0, 10, 11)
			return err
		}},
		{"bad qmax", func() error {
			_, err := NewControlledQueue(law, 5, 0, 0, 10, 11)
			return err
		}},
		{"one rate level", func() error {
			_, err := NewControlledQueue(law, 5, 20, 0, 10, 1)
			return err
		}},
		{"inverted range", func() error {
			_, err := NewControlledQueue(law, 5, 20, 10, 5, 11)
			return err
		}},
		{"negative min", func() error {
			_, err := NewControlledQueue(law, 5, 20, -1, 5, 11)
			return err
		}},
	}
	for _, tc := range cases {
		if tc.fn() == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
}

func TestControlledQueueIndexing(t *testing.T) {
	cq, err := NewControlledQueue(testLaw(t), 5, 7, 0, 12, 13)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cq.NStates(), 8*13; got != want {
		t.Fatalf("NStates = %d, want %d", got, want)
	}
	seen := make(map[int]bool)
	for q := 0; q <= 7; q++ {
		for l := 0; l < 13; l++ {
			i := cq.Index(q, l)
			if i < 0 || i >= cq.NStates() || seen[i] {
				t.Fatalf("Index(%d,%d) = %d invalid or duplicate", q, l, i)
			}
			seen[i] = true
		}
	}
	if r := cq.Rate(0); r != 0 {
		t.Errorf("Rate(0) = %v, want 0", r)
	}
	if r := cq.Rate(12); math.Abs(r-12) > 1e-12 {
		t.Errorf("Rate(12) = %v, want 12", r)
	}
	if l := cq.RateLevel(-3); l != 0 {
		t.Errorf("RateLevel(-3) = %d, want clamp to 0", l)
	}
	if l := cq.RateLevel(99); l != 12 {
		t.Errorf("RateLevel(99) = %d, want clamp to 12", l)
	}
	if l := cq.RateLevel(5.4); l != 5 {
		t.Errorf("RateLevel(5.4) = %d, want 5", l)
	}
}

func TestControlledQueueMassConservation(t *testing.T) {
	cq, err := NewControlledQueue(testLaw(t), 10, 30, 0, 20, 21)
	if err != nil {
		t.Fatal(err)
	}
	p0, err := cq.InitialPoint(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := cq.Chain().Transient(p0, 3, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range p {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("mass = %.12f, want 1", sum)
	}
	mq, err := cq.MarginalQ(p)
	if err != nil {
		t.Fatal(err)
	}
	sumQ := 0.0
	for _, v := range mq {
		sumQ += v
	}
	if math.Abs(sumQ-1) > 1e-9 {
		t.Errorf("queue marginal mass %v, want 1", sumQ)
	}
}

func TestControlledQueueConvergesNearTarget(t *testing.T) {
	// The AIMD-controlled chain's long-run mean rate must sit near the
	// service rate μ and the mean queue near q̂ — Theorem 1's limit
	// point, but obtained from the exact Markov model rather than the
	// σ=0 characteristics. Tolerances are loose: the chain hovers
	// around the target under genuine birth-death noise.
	law, err := control.NewAIMD(2, 0.8, 8)
	if err != nil {
		t.Fatal(err)
	}
	const mu = 10.0
	cq, err := NewControlledQueue(law, mu, 40, 0, 20, 41)
	if err != nil {
		t.Fatal(err)
	}
	p0, err := cq.InitialPoint(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	p, err := cq.Chain().Transient(p0, 200, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	mQ, _, err := cq.QueueMoments(p)
	if err != nil {
		t.Fatal(err)
	}
	mL := meanRate(cq, p)
	if math.Abs(mL-mu) > 0.15*mu {
		t.Errorf("mean rate %v far from μ = %v", mL, mu)
	}
	if math.Abs(mQ-8) > 5 {
		t.Errorf("mean queue %v far from q̂ = 8", mQ)
	}
}

func TestControlledQueueInitialPointErrors(t *testing.T) {
	cq, err := NewControlledQueue(testLaw(t), 5, 10, 0, 10, 11)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cq.InitialPoint(-1, 5); err == nil {
		t.Error("negative queue: want error")
	}
	if _, err := cq.InitialPoint(11, 5); err == nil {
		t.Error("queue beyond capacity: want error")
	}
}

func TestControlledQueueMarginalLengthChecks(t *testing.T) {
	cq, err := NewControlledQueue(testLaw(t), 5, 10, 0, 10, 11)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cq.MarginalQ(make([]float64, 3)); err == nil {
		t.Error("MarginalQ length: want error")
	}
	if _, _, err := cq.QueueMoments(make([]float64, 3)); err == nil {
		t.Error("QueueMoments length: want error")
	}
}

func TestControlledQueueRateDriftDirection(t *testing.T) {
	// With the queue pinned low (capacity 1 ⇒ queue ∈ {0,1} stays
	// mostly below q̂ = 50) the AIMD chain should push the rate up over
	// a short horizon.
	law, err := control.NewAIMD(2, 0.8, 50)
	if err != nil {
		t.Fatal(err)
	}
	cq, err := NewControlledQueue(law, 100, 1, 0, 10, 21)
	if err != nil {
		t.Fatal(err)
	}
	p0, err := cq.InitialPoint(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := cq.Chain().Transient(p0, 2, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	mL := meanRate(cq, p)
	// dλ/dt = C0 = 2 for 2 seconds from λ0 = 2 → ≈ 6.
	if mL < 4 || mL > 8 {
		t.Errorf("mean rate after probe = %v, want ≈ 6", mL)
	}
}

// meanRate returns E[λ] under the joint law p.
func meanRate(cq *ControlledQueue, p []float64) float64 {
	var m float64
	for q := 0; q <= cq.QMax; q++ {
		for l := 0; l < cq.NRate; l++ {
			m += p[cq.Index(q, l)] * cq.Rate(l)
		}
	}
	return m
}
