package churn

import (
	"fmt"
	"math"
	"testing"

	"fpcc/internal/rng"
)

// TestExponentialPhasesExact pins the exponential lifetime's phase
// representation: exactly one phase at hazard 1/mean, so the density
// engines evolve the distribution without approximation.
func TestExponentialPhasesExact(t *testing.T) {
	e, err := NewExponential(12.5)
	if err != nil {
		t.Fatal(err)
	}
	ph := e.Phases()
	if len(ph) != 1 {
		t.Fatalf("exponential has %d phases, want 1", len(ph))
	}
	if ph[0].Weight != 1 || ph[0].Rate != 1/12.5 {
		t.Errorf("phase = %+v, want weight 1, rate %v", ph[0], 1/12.5)
	}
	if err := ValidatePhases(ph, e.Mean()); err != nil {
		t.Error(err)
	}
}

// paretoContract returns the first way p's hyperexponential fit
// breaks its contract, or nil: the phases must pass ValidatePhases at
// Mean() and preserve the mean to 1e-9 relative. In the heavy-tailed
// regime α ≤ 2 (cv² ≥ 1, where a hyperexponential can represent the
// shape) the fit anchors the top three decades of the tail, so the
// model ccdf must also stay within a factor of 3 of the truth at the
// quantiles spanning them. For α > 2 the distribution is LESS
// variable than an exponential, no exponential mixture can match it,
// and only the exact mean is promised.
func paretoContract(p Pareto, alpha, xm float64) error {
	ph := p.Phases()
	if err := ValidatePhases(ph, p.Mean()); err != nil {
		return err
	}
	var mixMean float64
	for _, q := range ph {
		mixMean += q.Weight / q.Rate
	}
	if rel := math.Abs(mixMean-p.Mean()) / p.Mean(); !(rel <= 1e-9) {
		return fmt.Errorf("mixture mean %v off the mean %v by %.2e relative", mixMean, p.Mean(), rel)
	}
	if alpha > 2 {
		return nil
	}
	for _, lvl := range []float64{0.3, 0.1, 0.03, 0.01, 0.003, 0.001} {
		x := xm * math.Pow(lvl, -1/alpha) // ccdf(x) = lvl
		var model float64
		for _, q := range ph {
			model += q.Weight * math.Exp(-q.Rate*x)
		}
		if ratio := model / lvl; !(ratio >= 1.0/3 && ratio <= 3) {
			return fmt.Errorf("ccdf at level %v off by factor %.3g", lvl, ratio)
		}
	}
	return nil
}

// TestParetoPhasesContract holds the hyperexponential fit to
// paretoContract over a grid of shapes and scales.
func TestParetoPhasesContract(t *testing.T) {
	for _, alpha := range []float64{1.2, 1.5, 2, 3, 5} {
		for _, xm := range []float64{0.5, 2, 10} {
			p, err := NewPareto(alpha, xm)
			if err != nil {
				t.Fatal(err)
			}
			if err := paretoContract(p, alpha, xm); err != nil {
				t.Errorf("α=%v xm=%v: %v", alpha, xm, err)
			}
		}
	}
}

// TestParetoSampleMoments checks the exact sampler against the
// analytic mean and the scale floor.
func TestParetoSampleMoments(t *testing.T) {
	p, err := NewPareto(2.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		x := p.Sample(r)
		if x < 3 {
			t.Fatalf("sample %v below scale 3", x)
		}
		sum += x
	}
	if got, want := sum/n, p.Mean(); math.Abs(got-want)/want > 0.02 {
		t.Errorf("sample mean %v, want %v within 2%%", got, want)
	}
}

// TestExponentialSampleMean holds the memoryless sampler to its mean.
func TestExponentialSampleMean(t *testing.T) {
	e, err := NewExponential(4)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += e.Sample(r)
	}
	if got := sum / n; math.Abs(got-4)/4 > 0.02 {
		t.Errorf("sample mean %v, want 4 within 2%%", got)
	}
}

// TestConstructorValidation rejects the parameterizations the open
// system cannot close on: infinite-mean Pareto (α ≤ 1), non-positive
// scales and means.
func TestConstructorValidation(t *testing.T) {
	if _, err := NewPareto(1, 1); err == nil {
		t.Error("α = 1 (infinite mean) accepted")
	}
	if _, err := NewPareto(0.5, 1); err == nil {
		t.Error("α < 1 accepted")
	}
	if _, err := NewPareto(2, 0); err == nil {
		t.Error("zero scale accepted")
	}
	if _, err := NewExponential(0); err == nil {
		t.Error("zero mean accepted")
	}
	if _, err := NewExponential(math.Inf(1)); err == nil {
		t.Error("infinite mean accepted")
	}
}

// TestFlowValidate covers the open-system descriptor's checks,
// including Little's-law bookkeeping.
func TestFlowValidate(t *testing.T) {
	life, err := NewExponential(10)
	if err != nil {
		t.Fatal(err)
	}
	f := &Flow{Arrival: 5, Lifetime: life, Lambda0: 0.5, InitStd: 0.1}
	if err := f.Validate(4); err != nil {
		t.Fatalf("valid flow rejected: %v", err)
	}
	if got := f.MeanPopulation(); got != 50 {
		t.Errorf("MeanPopulation = %v, want 50", got)
	}
	bad := []Flow{
		{Arrival: -1, Lifetime: life},
		{Arrival: 1, Lifetime: nil},
		{Arrival: 1, Lifetime: life, Lambda0: 5}, // above lMax=4
		{Arrival: 1, Lifetime: life, InitStd: -1},
	}
	for i := range bad {
		if err := bad[i].Validate(4); err == nil {
			t.Errorf("bad flow %d accepted", i)
		}
	}
}

// TestPulseEnvelope pins the deterministic duty cycle and its mean
// factor.
func TestPulseEnvelope(t *testing.T) {
	p, err := NewPulse(2, 0, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ t, want float64 }{
		{0, 2}, {0.99, 2}, {1.0, 0}, {3.99, 0}, {4.0, 2}, {5.5, 0},
	}
	for _, c := range cases {
		if got := p.FactorAt(c.t); got != c.want {
			t.Errorf("FactorAt(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	if got := p.MeanFactor(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("MeanFactor = %v, want 0.5", got)
	}
	if _, err := NewPulse(-1, 0, 1, 1); err == nil {
		t.Error("negative factor accepted")
	}
}

// TestValidatePhasesRejects covers the contract checker's refusals.
func TestValidatePhasesRejects(t *testing.T) {
	if err := ValidatePhases(nil, 1); err == nil {
		t.Error("empty phase list accepted")
	}
	if err := ValidatePhases([]Phase{{Weight: 0.5, Rate: 1}}, 0.5); err == nil {
		t.Error("weights summing to 0.5 accepted")
	}
	if err := ValidatePhases([]Phase{{Weight: 1, Rate: 0}}, 1); err == nil {
		t.Error("zero rate accepted")
	}
	if err := ValidatePhases([]Phase{{Weight: 1, Rate: 1}}, 2); err == nil {
		t.Error("mean-violating mixture accepted")
	}
}
