package stability

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"fpcc/internal/control"
	"fpcc/internal/dde"
)

func TestCriticalDelayClosedFormNoDamping(t *testing.T) {
	// β = 0: ω* = √α and τ* = atan2(0, ω²)/ω = 0 — an undamped
	// delayed oscillator is marginal at zero delay.
	tau, omega, err := CriticalDelay(-4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(omega-2) > 1e-12 {
		t.Errorf("omega = %v, want 2", omega)
	}
	if tau != 0 {
		t.Errorf("tau* = %v, want 0", tau)
	}
}

func TestCriticalDelayMatchesRootCrossing(t *testing.T) {
	// The dominant root's real part must change sign exactly at τ*.
	const a, b = -3.0, -0.9
	tauStar, omega, err := CriticalDelay(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !(tauStar > 0) {
		t.Fatalf("tau* = %v, want > 0 with damping", tauStar)
	}
	below, err := DominantRoot(a, b, 0.9*tauStar)
	if err != nil {
		t.Fatal(err)
	}
	above, err := DominantRoot(a, b, 1.1*tauStar)
	if err != nil {
		t.Fatal(err)
	}
	at, err := DominantRoot(a, b, tauStar)
	if err != nil {
		t.Fatal(err)
	}
	if real(below) >= 0 {
		t.Errorf("Re(root) = %v below τ*, want negative", real(below))
	}
	if real(above) <= 0 {
		t.Errorf("Re(root) = %v above τ*, want positive", real(above))
	}
	if math.Abs(real(at)) > 1e-6 {
		t.Errorf("Re(root) = %v at τ*, want ≈ 0", real(at))
	}
	if math.Abs(imag(at)-omega) > 1e-6 {
		t.Errorf("Im(root) = %v at τ*, want Hopf frequency %v", imag(at), omega)
	}
}

func TestCriticalDelayValidation(t *testing.T) {
	if _, _, err := CriticalDelay(1, -1); err == nil {
		t.Error("a > 0: want error")
	}
	if _, _, err := CriticalDelay(-1, 1); err == nil {
		t.Error("b > 0: want error")
	}
}

func TestDominantRootUndelayedQuadratic(t *testing.T) {
	// τ = 0 reduces to s² − bs − a = 0 with roots (b ± √(b²+4a))/2.
	const a, b = -5.0, -1.2
	r, err := DominantRoot(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	disc := complex(b*b+4*a, 0)
	want := (complex(b, 0) + cmplx.Sqrt(disc)) / 2
	if imag(want) < 0 {
		want = cmplx.Conj(want)
	}
	if cmplx.Abs(r-want) > 1e-9 {
		t.Errorf("root = %v, want %v", r, want)
	}
}

func TestDominantRootIsARoot(t *testing.T) {
	for _, tau := range []float64{0, 0.1, 0.5, 1, 2} {
		r, err := DominantRoot(-2.5, -0.4, tau)
		if err != nil {
			t.Fatalf("τ=%v: %v", tau, err)
		}
		if d, _ := CharEval(r, -2.5, -0.4, tau); cmplx.Abs(d) > 1e-8 {
			t.Errorf("τ=%v: |D(root)| = %v", tau, cmplx.Abs(d))
		}
	}
}

func TestDominantRootValidation(t *testing.T) {
	if _, err := DominantRoot(1, 0, 1); err == nil {
		t.Error("a > 0: want error")
	}
	if _, err := DominantRoot(-1, 0, -1); err == nil {
		t.Error("negative delay: want error")
	}
}

func TestClassify(t *testing.T) {
	const a, b = -3.0, -0.9
	tauStar, _, err := CriticalDelay(a, b)
	if err != nil {
		t.Fatal(err)
	}
	cls, _, err := Classify(a, b, 0.5*tauStar, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if cls != Stable {
		t.Errorf("below τ*: %v, want stable", cls)
	}
	cls, _, err = Classify(a, b, 2*tauStar, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if cls != Unstable {
		t.Errorf("above τ*: %v, want unstable", cls)
	}
	cls, _, err = Classify(a, b, tauStar, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if cls != Marginal {
		t.Errorf("at τ*: %v, want marginal", cls)
	}
	if Stable.String() != "stable" || Unstable.String() != "unstable" ||
		Marginal.String() != "marginal" || Classification(9).String() == "" {
		t.Error("Classification.String broken")
	}
}

func TestSweepDelayMonotoneGrowthRate(t *testing.T) {
	// The dominant root's real part grows monotonically with τ for
	// this loop class (more delay, more instability).
	const a, b = -2.0, -0.5
	taus := []float64{0, 0.2, 0.4, 0.8, 1.2, 1.6}
	prev := math.Inf(-1)
	for _, tau := range taus {
		_, root, err := Classify(a, b, tau, 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		if real(root) < prev-1e-9 {
			t.Errorf("growth rate fell from %v to %v at τ=%v", prev, real(root), tau)
		}
		prev = real(root)
	}
}

func TestLinearizeSmoothAIMDMatchesClosedForm(t *testing.T) {
	law, err := control.NewSmoothAIMD(2, 0.8, 20, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	const mu = 10.0
	lin, err := Linearize(law, mu, 0, 60)
	if err != nil {
		t.Fatal(err)
	}
	qStar, err := law.Equilibrium(mu)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lin.QStar-qStar) > 1e-6 {
		t.Errorf("q* = %v, closed form %v", lin.QStar, qStar)
	}
	if math.Abs(lin.A-law.PartialQ(qStar, mu)) > 1e-5 {
		t.Errorf("a = %v, closed form %v", lin.A, law.PartialQ(qStar, mu))
	}
	if math.Abs(lin.B-law.PartialLambda(qStar, mu)) > 1e-5 {
		t.Errorf("b = %v, closed form %v", lin.B, law.PartialLambda(qStar, mu))
	}
	if !(lin.A < 0) || !(lin.B < 0) {
		t.Errorf("expected restoring feedback and damping, got a=%v b=%v", lin.A, lin.B)
	}
}

func TestLinearizeValidation(t *testing.T) {
	law, _ := control.NewSmoothAIMD(2, 0.8, 20, 1)
	if _, err := Linearize(nil, 10, 0, 50); err == nil {
		t.Error("nil law: want error")
	}
	if _, err := Linearize(law, 0, 0, 50); err == nil {
		t.Error("zero mu: want error")
	}
	if _, err := Linearize(law, 10, 50, 0); err == nil {
		t.Error("inverted bracket: want error")
	}
	// A bracket that misses the equilibrium.
	if _, err := Linearize(law, 10, 100, 200); err == nil {
		t.Error("bracket without sign change: want error")
	}
}

// simulateDelayedAmplitude integrates the nonlinear smoothed fluid
// loop with delay τ and returns the swing (max−min of λ) over the
// tail of the run.
func simulateDelayedAmplitude(t *testing.T, law control.SmoothAIMD, mu, tau float64) float64 {
	t.Helper()
	sys := func(tt float64, y []float64, lag dde.Lagger, dydt []float64) {
		qDelayed := lag.Lag(0, tau)
		dydt[0] = y[1] - mu
		if y[0] <= 0 && y[1] < mu {
			dydt[0] = 0 // reflecting boundary at empty queue
		}
		dydt[1] = law.Drift(qDelayed, y[1])
	}
	hist := func(tt float64) []float64 { return []float64{5, mu + 1} }
	res, err := dde.Solve(sys, hist, []float64{tau}, 0, 400, 0.001, dde.Options{Stride: 100})
	if err != nil {
		t.Fatalf("dde solve: %v", err)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < res.Len(); i++ {
		tt, y := res.At(i)
		if tt < 300 {
			continue
		}
		if y[1] < lo {
			lo = y[1]
		}
		if y[1] > hi {
			hi = y[1]
		}
	}
	return hi - lo
}

func TestCriticalDelayPredictsNonlinearOnset(t *testing.T) {
	// The closed-form τ* from the linearization must separate decaying
	// from persistent oscillation in the full nonlinear DDE: well
	// below τ* the tail swing is tiny, well above it the loop rings
	// with O(μ) amplitude.
	law, err := control.NewSmoothAIMD(2, 0.8, 20, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	const mu = 10.0
	lin, err := Linearize(law, mu, 0, 60)
	if err != nil {
		t.Fatal(err)
	}
	tauStar, _, err := CriticalDelay(lin.A, lin.B)
	if err != nil {
		t.Fatal(err)
	}
	if !(tauStar > 0.01 && tauStar < 10) {
		t.Fatalf("τ* = %v outside plausible range", tauStar)
	}
	quiet := simulateDelayedAmplitude(t, law, mu, 0.25*tauStar)
	loud := simulateDelayedAmplitude(t, law, mu, 2.5*tauStar)
	if quiet > 0.5 {
		t.Errorf("swing %v below τ*, want near-converged", quiet)
	}
	if loud < 1.5 {
		t.Errorf("swing %v above τ*, want a persistent limit cycle", loud)
	}
}

// Property: for random damped loops the closed-form Hopf point always
// has the dominant root on the imaginary axis (|Re| small) with the
// predicted frequency.
func TestHopfPointProperty(t *testing.T) {
	f := func(aRaw, bRaw uint8) bool {
		a := -(0.2 + float64(aRaw)/32)  // (-8.2, -0.2)
		b := -(0.05 + float64(bRaw)/64) // (-4.05, -0.05)
		tauStar, omega, err := CriticalDelay(a, b)
		if err != nil || !(tauStar > 0) {
			return false
		}
		r, err := DominantRoot(a, b, tauStar)
		if err != nil {
			return false
		}
		return math.Abs(real(r)) < 1e-6*(1+omega*omega) &&
			math.Abs(imag(r)-omega) < 1e-5*(1+omega)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCriticalDelayWidthOverMuLaw(t *testing.T) {
	// Derived law: for SmoothAIMD the linearization gives exactly
	// β/α = Width/μ, so τ* = Width/μ·(1 + O(β²/α)). Verify the exact
	// ratio and the first-order delay budget across parameters.
	for _, tc := range []struct{ c0, c1, width, mu float64 }{
		{2, 0.8, 1.5, 10}, {0.5, 0.2, 1.5, 10}, {8, 1.6, 1.5, 10},
		{2, 0.8, 4, 10}, {2, 0.8, 1.5, 40},
	} {
		law, err := control.NewSmoothAIMD(tc.c0, tc.c1, 20, tc.width)
		if err != nil {
			t.Fatal(err)
		}
		lin, err := Linearize(law, tc.mu, 0, 400)
		if err != nil {
			t.Fatal(err)
		}
		ratio := -lin.B / -lin.A // β/α
		want := tc.width / tc.mu
		if math.Abs(ratio-want) > 1e-4*want {
			t.Errorf("%+v: β/α = %v, want Width/μ = %v", tc, ratio, want)
		}
		tauStar, _, err := CriticalDelay(lin.A, lin.B)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(tauStar-want) > 0.15*want {
			t.Errorf("%+v: τ* = %v, want ≈ Width/μ = %v", tc, tauStar, want)
		}
	}
}
