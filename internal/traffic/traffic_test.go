package traffic

import (
	"math"
	"testing"
	"testing/quick"

	"fpcc/internal/rng"
)

func TestNewMMPP2Validation(t *testing.T) {
	cases := []struct {
		f1, f2, r12, r21 float64
	}{
		{-1, 1, 1, 1}, {1, math.NaN(), 1, 1}, {1, 1, 0, 1}, {1, 1, 1, 0},
		{1, 1, -2, 1}, {math.Inf(1), 1, 1, 1},
	}
	for _, tc := range cases {
		if _, err := NewMMPP2(tc.f1, tc.f2, tc.r12, tc.r21); err == nil {
			t.Errorf("NewMMPP2(%v,%v,%v,%v): want error", tc.f1, tc.f2, tc.r12, tc.r21)
		}
	}
}

func TestNewMMPPValidation(t *testing.T) {
	if _, err := NewMMPP([]float64{1}, [][]float64{{0}}); err == nil {
		t.Error("single state: want error")
	}
	if _, err := NewMMPP([]float64{1, 2}, [][]float64{{0, 1}}); err == nil {
		t.Error("short switch matrix: want error")
	}
	if _, err := NewMMPP([]float64{1, 2}, [][]float64{{0, 1}, {1}}); err == nil {
		t.Error("ragged switch matrix: want error")
	}
}

func TestMMPP2Stationary(t *testing.T) {
	// π1 = r21/(r12+r21).
	m, err := NewMMPP2(2, 0.5, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	pi := m.Stationary()
	if math.Abs(pi[0]-0.25) > 1e-10 || math.Abs(pi[1]-0.75) > 1e-10 {
		t.Errorf("stationary = %v, want [0.25 0.75]", pi)
	}
	wantMean := 0.25*2 + 0.75*0.5
	if math.Abs(m.MeanFactor()-wantMean) > 1e-10 {
		t.Errorf("MeanFactor = %v, want %v", m.MeanFactor(), wantMean)
	}
}

func TestOnOffMeanFactorIsOne(t *testing.T) {
	for _, tc := range []struct{ on, off float64 }{
		{1, 1}, {0.1, 0.9}, {5, 2}, {0.01, 1},
	} {
		m, err := NewOnOff(tc.on, tc.off)
		if err != nil {
			t.Fatal(err)
		}
		if mf := m.MeanFactor(); math.Abs(mf-1) > 1e-9 {
			t.Errorf("on=%v off=%v: mean factor %v, want 1", tc.on, tc.off, mf)
		}
	}
	if _, err := NewOnOff(0, 1); err == nil {
		t.Error("zero on-time: want error")
	}
	if _, err := NewOnOff(1, -1); err == nil {
		t.Error("negative off-time: want error")
	}
}

func TestPoissonIDCNearOne(t *testing.T) {
	// An unmodulated process (factors equal) is plain Poisson: IDC ≈ 1.
	m, err := NewMMPP2(1, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(42)
	const horizon = 5000.0
	times, err := Arrivals(m, r, 20, horizon)
	if err != nil {
		t.Fatal(err)
	}
	idc, err := IDC(times, 1.0, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if idc < 0.9 || idc > 1.1 {
		t.Errorf("Poisson IDC = %v, want ≈ 1", idc)
	}
}

func TestMMPP2IDCMatchesClosedForm(t *testing.T) {
	// Strongly bimodal MMPP: the measured large-window IDC must land
	// near the closed form 1 + 2π1π2(f1−f2)²/((r12+r21)·f̄).
	m, err := NewMMPP2(3, 0.2, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	const baseRate = 25.0
	want, err := m.IDCInfinity(baseRate)
	if err != nil {
		t.Fatal(err)
	}
	if want <= 1.5 {
		t.Fatalf("test fixture too tame: closed-form IDC %v", want)
	}
	r := rng.New(7)
	const horizon = 40000.0
	times, err := Arrivals(m, r, baseRate, horizon)
	if err != nil {
		t.Fatal(err)
	}
	// Window far above the 1/(r12+r21) = 1s burst scale.
	idc, err := IDC(times, 50, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(idc-want) > 0.35*want {
		t.Errorf("measured IDC %v vs closed form %v (>35%% off)", idc, want)
	}
}

func TestIDCInfinityRequiresTwoStates(t *testing.T) {
	m, err := NewMMPP(
		[]float64{1, 2, 3},
		[][]float64{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.IDCInfinity(10); err == nil {
		t.Error("3-state IDCInfinity: want error")
	}
	m2, err := NewMMPP2(1, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.IDCInfinity(0); err == nil {
		t.Error("zero base rate: want error")
	}
}

func TestIDCCurveRises(t *testing.T) {
	// For bursty traffic IDC(w) grows with w toward the asymptote.
	m, err := NewOnOff(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(11)
	const horizon = 30000.0
	times, err := Arrivals(m, r, 30, horizon)
	if err != nil {
		t.Fatal(err)
	}
	var curve []float64
	for _, w := range []float64{0.05, 1, 20} {
		idc, err := IDC(times, w, horizon)
		if err != nil {
			t.Fatal(err)
		}
		curve = append(curve, idc)
	}
	if !(curve[0] < curve[1] && curve[1] < curve[2]) {
		t.Errorf("IDC curve not rising: %v", curve)
	}
	if curve[2] < 3 {
		t.Errorf("large-window IDC %v too small for on/off burst traffic", curve[2])
	}
}

func TestSquareWave(t *testing.T) {
	sw, err := NewSquareWave(2, 0.5, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sw.States() != 2 || sw.Name() == "" {
		t.Error("basic accessors broken")
	}
	if mf := sw.MeanFactor(); math.Abs(mf-(2*1+0.5*3)/4) > 1e-12 {
		t.Errorf("MeanFactor = %v", mf)
	}
	// Deterministic phases: hi for 1 s, lo for 3 s, and again. Over
	// two periods the time average is the mean factor.
	r := rng.New(1)
	state := sw.InitState(r)
	var integral float64
	for i, want := range []struct{ factor, dur float64 }{{2, 1}, {0.5, 3}, {2, 1}, {0.5, 3}} {
		f, d := sw.Factor(state), sw.Sojourn(state, r)
		if f != want.factor || d != want.dur {
			t.Errorf("phase %d: factor %v for %v s, want %v for %v s", i, f, d, want.factor, want.dur)
		}
		integral += f * d
		state = sw.Next(state, r)
	}
	if m := integral / 8; math.Abs(m-sw.MeanFactor()) > 1e-12 {
		t.Errorf("mean over two periods = %v, want %v", m, sw.MeanFactor())
	}
	if _, err := NewSquareWave(-1, 0, 1, 1); err == nil {
		t.Error("negative hi: want error")
	}
	if _, err := NewSquareWave(1, 0, 0, 1); err == nil {
		t.Error("zero duration: want error")
	}
}

func TestArrivalsValidation(t *testing.T) {
	m, _ := NewOnOff(1, 1)
	r := rng.New(1)
	if _, err := Arrivals(nil, r, 1, 1); err == nil {
		t.Error("nil modulator: want error")
	}
	if _, err := Arrivals(m, nil, 1, 1); err == nil {
		t.Error("nil rng: want error")
	}
	if _, err := Arrivals(m, r, 0, 1); err == nil {
		t.Error("zero rate: want error")
	}
	if _, err := Arrivals(m, r, 1, 0); err == nil {
		t.Error("zero horizon: want error")
	}
}

func TestArrivalsMeanRatePreserved(t *testing.T) {
	// An on/off envelope with mean factor 1 keeps the long-run packet
	// rate at the base rate.
	m, err := NewOnOff(1.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(99)
	const base, horizon = 40.0, 20000.0
	times, err := Arrivals(m, r, base, horizon)
	if err != nil {
		t.Fatal(err)
	}
	rate := float64(len(times)) / horizon
	if math.Abs(rate-base) > 0.05*base {
		t.Errorf("long-run rate %v, want ≈ %v", rate, base)
	}
}

// Property: a modulator's phases have positive durations and
// non-negative factors, and arrivals are sorted within the horizon.
func TestModulatorProperties(t *testing.T) {
	f := func(seed uint64, onRaw, offRaw uint8) bool {
		on := 0.05 + float64(onRaw)/64
		off := 0.05 + float64(offRaw)/64
		m, err := NewOnOff(on, off)
		if err != nil {
			return false
		}
		r := rng.New(seed)
		for state, t := m.InitState(r), 0.0; t < 50; state = m.Next(state, r) {
			d := m.Sojourn(state, r)
			if m.Factor(state) < 0 || !(d > 0) {
				return false
			}
			t += d
		}
		times, err := Arrivals(m, rng.New(seed+1), 5, 50)
		if err != nil {
			return false
		}
		for i, tt := range times {
			if tt < 0 || tt > 50 {
				return false
			}
			if i > 0 && tt < times[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCountsInWindowsErrors(t *testing.T) {
	if _, err := CountsInWindows([]float64{1, 0.5}, 1, 10); err == nil {
		t.Error("unsorted times: want error")
	}
	if _, err := CountsInWindows(nil, 0, 10); err == nil {
		t.Error("zero window: want error")
	}
	if _, err := CountsInWindows(nil, 5, 3); err == nil {
		t.Error("horizon < window: want error")
	}
}

func TestIDCErrors(t *testing.T) {
	if _, err := IDC(nil, 1, 1.5); err == nil {
		t.Error("single window: want error")
	}
	if _, err := IDC(nil, 1, 10); err == nil {
		t.Error("no arrivals: want error")
	}
}
