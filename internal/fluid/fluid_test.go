package fluid

import (
	"math"
	"testing"
	"testing/quick"

	"fpcc/internal/control"
)

func mustAIMD(t testing.TB, c0, c1, qHat float64) control.AIMD {
	t.Helper()
	l, err := control.NewAIMD(c0, c1, qHat)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestValidate(t *testing.T) {
	l := mustAIMD(t, 1, 0.5, 10)
	good := Model{Mu: 5, Sources: []Source{{Law: l, Lambda0: 1}}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	cases := []Model{
		{Mu: 0, Sources: []Source{{Law: l}}},
		{Mu: 5, Q0: -1, Sources: []Source{{Law: l}}},
		{Mu: 5},
		{Mu: 5, Sources: []Source{{Law: nil}}},
		{Mu: 5, Sources: []Source{{Law: l, Delay: -1}}},
		{Mu: 5, Sources: []Source{{Law: l, Lambda0: -1}}},
		{Mu: 5, Q0: math.NaN(), Sources: []Source{{Law: l}}},
		{Mu: 5, Q0: math.Inf(1), Sources: []Source{{Law: l}}},
		{Mu: 5, Sources: []Source{{Law: l, Lambda0: math.NaN()}}},
		{Mu: 5, Sources: []Source{{Law: l, Lambda0: math.Inf(1)}}},
		{Mu: 5, Sources: []Source{{Law: l, Delay: math.Inf(1)}}},
	}
	for i, m := range cases {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: invalid model accepted", i)
		}
	}
}

// TestSingleSourceConvergence: without delay the fluid model must
// reproduce Theorem 1 — convergence to Q = q̂, λ = μ.
func TestSingleSourceConvergence(t *testing.T) {
	l := mustAIMD(t, 2, 0.8, 20)
	m := Model{Mu: 10, Q0: 0, Sources: []Source{{Law: l, Lambda0: 2}}}
	sol, err := m.Solve(800, 1e-3, 100)
	if err != nil {
		t.Fatal(err)
	}
	_, y := sol.Last()
	if math.Abs(y[0]-20) > 1.0 {
		t.Errorf("final queue %v, want near 20", y[0])
	}
	if math.Abs(y[1]-10) > 1.0 {
		t.Errorf("final rate %v, want near 10", y[1])
	}
}

// TestEqualSourcesFairShare: N identical sources converge to equal
// shares of μ (Section 6 fairness).
func TestEqualSourcesFairShare(t *testing.T) {
	l := mustAIMD(t, 2, 0.8, 20)
	const n = 4
	const mu = 12.0
	srcs := make([]Source, n)
	for i := range srcs {
		// Deliberately very unequal starting rates.
		srcs[i] = Source{Law: l, Lambda0: float64(i) * 2}
	}
	m := Model{Mu: mu, Q0: 0, Sources: srcs}
	sol, err := m.Solve(2000, 1e-3, 200)
	if err != nil {
		t.Fatal(err)
	}
	means := sol.MeanRates(1500)
	for i, mean := range means {
		if math.Abs(mean-mu/n)/(mu/n) > 0.05 {
			t.Errorf("source %d mean rate %v, want ~%v (equal share)", i, mean, mu/n)
		}
	}
}

// TestHeterogeneousShares: sources with different (C0, C1) split the
// bottleneck according to C0ᵢ/C1ᵢ (Section 6's exact-share law).
func TestHeterogeneousShares(t *testing.T) {
	laws := []control.AIMD{
		mustAIMD(t, 2, 0.8, 20),
		mustAIMD(t, 1, 0.8, 20), // half the increase rate -> half the share
	}
	const mu = 10.0
	m := Model{Mu: mu, Q0: 0, Sources: []Source{
		{Law: laws[0], Lambda0: 1},
		{Law: laws[1], Lambda0: 1},
	}}
	sol, err := m.Solve(3000, 1e-3, 200)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := PredictedShares(laws)
	if err != nil {
		t.Fatal(err)
	}
	means := sol.MeanRates(2000)
	total := means[0] + means[1]
	for i := range means {
		gotShare := means[i] / total
		if math.Abs(gotShare-pred[i]) > 0.05 {
			t.Errorf("source %d share %v, predicted %v", i, gotShare, pred[i])
		}
	}
}

// TestDelayInducesOscillation: with feedback delay the queue must
// oscillate persistently instead of converging (Section 7).
func TestDelayInducesOscillation(t *testing.T) {
	l := mustAIMD(t, 2, 0.8, 20)
	const mu = 10.0
	run := func(delay float64) float64 {
		m := Model{Mu: mu, Q0: 0, Sources: []Source{{Law: l, Delay: delay, Lambda0: 2}}}
		sol, err := m.Solve(600, 1e-3, 10)
		if err != nil {
			t.Fatal(err)
		}
		// Late-window queue swing.
		var lo, hi = math.Inf(1), math.Inf(-1)
		for i := 0; i < sol.Len(); i++ {
			tt, y := sol.At(i)
			if tt < 400 {
				continue
			}
			lo = math.Min(lo, y[0])
			hi = math.Max(hi, y[0])
		}
		return hi - lo
	}
	noDelay := run(0)
	delayed := run(2.0)
	if noDelay > 2 {
		t.Errorf("no-delay late swing %v, want near 0 (converged)", noDelay)
	}
	if delayed < 5 {
		t.Errorf("delayed late swing %v, want sustained oscillation", delayed)
	}
	if delayed < 3*noDelay {
		t.Errorf("delay should amplify oscillation: %v vs %v", delayed, noDelay)
	}
}

// TestPureDelayKeepsAverageShares documents a structural property of
// the rate model: with identical laws and different observation delays
// only, a time-shifted copy of one source's periodic solution solves
// the other's equation, so long-run average shares stay (nearly)
// equal even though instantaneous rates separate. (The paper's
// delay-unfairness operates through the full RTT coupling — see
// TestRTTCoupledUnfairness.)
func TestPureDelayKeepsAverageShares(t *testing.T) {
	l := mustAIMD(t, 2, 0.8, 20)
	const mu = 10.0
	m := Model{Mu: mu, Q0: 0, Sources: []Source{
		{Law: l, Delay: 0.5, Lambda0: 5},
		{Law: l, Delay: 4.0, Lambda0: 5},
	}}
	sol, err := m.Solve(2000, 5e-3, 100)
	if err != nil {
		t.Fatal(err)
	}
	means := sol.MeanRates(1000)
	if ratio := means[0] / means[1]; math.Abs(ratio-1) > 0.05 {
		t.Fatalf("pure observation delay changed average shares: ratio %v", ratio)
	}
	// But the instantaneous rates must genuinely differ (the sources
	// are out of phase, not identical).
	var maxGap float64
	for i := 0; i < sol.Len(); i++ {
		_, y := sol.At(i)
		if g := math.Abs(y[1] - y[2]); g > maxGap {
			maxGap = g
		}
	}
	if maxGap < 0.5 {
		t.Fatalf("sources move in lock-step (max gap %v); expected phase separation", maxGap)
	}
}

// TestRTTCoupledUnfairness: a longer connection has both a staler
// signal and a slower additive probe (C0 ∝ 1/RTT, one window step per
// RTT). The longer connection must then lose clearly (Section 7).
func TestRTTCoupledUnfairness(t *testing.T) {
	const mu = 10.0
	const rtt1, rtt2 = 0.5, 2.0
	l1 := mustAIMD(t, 2, 0.8, 20)
	l2 := mustAIMD(t, 2*rtt1/rtt2, 0.8, 20)
	m := Model{Mu: mu, Q0: 0, Sources: []Source{
		{Law: l1, Delay: rtt1, Lambda0: 5},
		{Law: l2, Delay: rtt2, Lambda0: 5},
	}}
	sol, err := m.Solve(2000, 5e-3, 100)
	if err != nil {
		t.Fatal(err)
	}
	means := sol.MeanRates(1000)
	if !(means[0] > 1.5*means[1]) {
		t.Fatalf("short connection %v should clearly beat long connection %v", means[0], means[1])
	}
}

func TestQueueNonNegative(t *testing.T) {
	l := mustAIMD(t, 2, 0.8, 5)
	m := Model{Mu: 20, Q0: 50, Sources: []Source{{Law: l, Lambda0: 0}}}
	sol, err := m.Solve(100, 1e-3, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sol.Len(); i++ {
		_, y := sol.At(i)
		if y[0] < 0 {
			t.Fatalf("negative queue %v at sample %d", y[0], i)
		}
		if y[1] < 0 {
			t.Fatalf("negative rate %v at sample %d", y[1], i)
		}
	}
}

func TestQueueAndRateAccessors(t *testing.T) {
	l := mustAIMD(t, 2, 0.8, 20)
	m := Model{Mu: 10, Q0: 3, Sources: []Source{{Law: l, Lambda0: 2}, {Law: l, Lambda0: 4}}}
	sol, err := m.Solve(1, 1e-3, 0)
	if err != nil {
		t.Fatal(err)
	}
	times, q := sol.Queue()
	if len(times) != len(q) || len(q) != sol.Len() {
		t.Fatal("Queue length mismatch")
	}
	if q[0] != 3 {
		t.Fatalf("initial queue %v, want 3", q[0])
	}
	if _, y := sol.At(0); y[1] != 2 || y[2] != 4 {
		t.Fatalf("initial rates (%v, %v), want (2, 4)", y[1], y[2])
	}
}

func TestMeanRatesWindow(t *testing.T) {
	l := mustAIMD(t, 2, 0.8, 20)
	m := Model{Mu: 10, Q0: 20, Sources: []Source{{Law: l, Lambda0: 10}}}
	sol, err := m.Solve(10, 1e-3, 0)
	if err != nil {
		t.Fatal(err)
	}
	all := sol.MeanRates(0)
	if len(all) != 1 || all[0] <= 0 {
		t.Fatalf("MeanRates = %v", all)
	}
	// A window past the end yields zeros rather than NaN.
	empty := sol.MeanRates(1e9)
	if empty[0] != 0 {
		t.Fatalf("empty-window mean = %v, want 0", empty[0])
	}
}

// pairMeans is the trapezoid rule over a stored Solution written pair
// by pair, as MeanRates read it before RateMeans: the oracle the
// streamed reducer must match bit for bit.
func pairMeans(s *Solution, tFrom float64) []float64 {
	means := make([]float64, s.NumSources)
	var span float64
	for k := 1; k < s.Len(); k++ {
		t0, y0 := s.At(k - 1)
		t1, y1 := s.At(k)
		if t1 <= tFrom {
			continue
		}
		w := t1 - math.Max(t0, tFrom)
		if w <= 0 {
			continue
		}
		span += w
		for i := range means {
			means[i] += w * 0.5 * (y0[1+i] + y1[1+i])
		}
	}
	if span > 0 {
		for i := range means {
			means[i] /= span
		}
	}
	return means
}

// TestRateMeansMatchesMeanRates: RateMeans fed by Stream, MeanRates
// over Solve's samples and the pair-by-pair oracle agree bit for bit,
// for windows that start before the first sample, on a sample, inside
// a strided step, and past the end.
func TestRateMeansMatchesMeanRates(t *testing.T) {
	l1, l2 := mustAIMD(t, 2, 0.8, 20), mustAIMD(t, 1, 0.5, 20)
	m := Model{Mu: 10, Q0: 3, Sources: []Source{{Law: l1, Delay: 0.2, Lambda0: 1}, {Law: l2, Lambda0: 9}}}
	const t1, h, stride = 30, 1e-3, 70
	sol, err := m.Solve(t1, h, stride)
	if err != nil {
		t.Fatal(err)
	}
	onSample, _ := sol.At(sol.Len() / 2)
	for _, from := range []float64{-1, 0, onSample, 12.3456, t1 - 1e-4, t1, 2 * t1} {
		r := RateMeans{From: from}
		if err := m.Stream(t1, h, stride, r.Add); err != nil {
			t.Fatal(err)
		}
		got, viaSol, want := r.Means(), sol.MeanRates(from), pairMeans(sol, from)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) || math.Float64bits(viaSol[i]) != math.Float64bits(want[i]) {
				t.Fatalf("From=%v source %d: RateMeans %v, MeanRates %v, oracle %v", from, i, got[i], viaSol[i], want[i])
			}
		}
		if len(got) != len(want) || len(viaSol) != len(want) {
			t.Fatalf("From=%v: %d and %d means, want %d", from, len(got), len(viaSol), len(want))
		}
	}
	if got := (&RateMeans{}).Means(); got != nil {
		t.Fatalf("Means before any Add = %v, want nil", got)
	}
}

func TestPredictedShares(t *testing.T) {
	laws := []control.AIMD{
		{C0: 2, C1: 1, QHat: 10},
		{C0: 1, C1: 1, QHat: 10},
		{C0: 1, C1: 2, QHat: 10},
	}
	shares, err := PredictedShares(laws)
	if err != nil {
		t.Fatal(err)
	}
	// Ratios 2 : 1 : 0.5, total 3.5.
	want := []float64{2 / 3.5, 1 / 3.5, 0.5 / 3.5}
	for i := range want {
		if math.Abs(shares[i]-want[i]) > 1e-12 {
			t.Errorf("share[%d] = %v, want %v", i, shares[i], want[i])
		}
	}
	if _, err := PredictedShares(nil); err == nil {
		t.Error("accepted empty laws")
	}
	if _, err := PredictedShares([]control.AIMD{{C0: 0, C1: 1}}); err == nil {
		t.Error("accepted zero C0")
	}
}

// Property: predicted shares always sum to 1 and are positive.
func TestPredictedSharesProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 8 {
			raw = raw[:8]
		}
		laws := make([]control.AIMD, len(raw))
		for i, r := range raw {
			laws[i] = control.AIMD{
				C0:   float64(r%100)/10 + 0.1,
				C1:   float64(r%37)/10 + 0.1,
				QHat: 10,
			}
		}
		shares, err := PredictedShares(laws)
		if err != nil {
			return false
		}
		var sum float64
		for _, s := range shares {
			if s <= 0 {
				return false
			}
			sum += s
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFluidSolveSingle(b *testing.B) {
	l := control.AIMD{C0: 2, C1: 0.8, QHat: 20}
	m := Model{Mu: 10, Q0: 0, Sources: []Source{{Law: l, Lambda0: 2}}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Solve(100, 1e-3, 100); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFluidStreamDelayed4Sources(b *testing.B) {
	l := control.AIMD{C0: 2, C1: 0.8, QHat: 20}
	srcs := make([]Source, 4)
	for i := range srcs {
		srcs[i] = Source{Law: l, Delay: 1 + float64(i), Lambda0: 2}
	}
	m := Model{Mu: 10, Q0: 0, Sources: srcs}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := RateMeans{From: 50}
		if err := m.Stream(100, 5e-3, 100, r.Add); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFluidSolveDelayed4Sources(b *testing.B) {
	l := control.AIMD{C0: 2, C1: 0.8, QHat: 20}
	srcs := make([]Source, 4)
	for i := range srcs {
		srcs[i] = Source{Law: l, Delay: 1 + float64(i), Lambda0: 2}
	}
	m := Model{Mu: 10, Q0: 0, Sources: srcs}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Solve(100, 5e-3, 100); err != nil {
			b.Fatal(err)
		}
	}
}
