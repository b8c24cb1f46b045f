package characteristics

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"fpcc/internal/control"
	"fpcc/internal/ode"
)

func mustAIMD(t testing.TB, c0, c1, qHat float64) control.AIMD {
	t.Helper()
	l, err := control.NewAIMD(c0, c1, qHat)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestDriftReflectionAtEmptyQueue(t *testing.T) {
	l := mustAIMD(t, 1, 0.5, 10)
	// Empty queue, rate below service: queue cannot drain further.
	dq, dlam := Drift(l, 5, Point{Q: 0, Lambda: 3})
	if dq != 0 {
		t.Errorf("dq at empty queue = %v, want 0", dq)
	}
	if dlam != 1 {
		t.Errorf("dλ = %v, want C0 = 1", dlam)
	}
	// Empty queue but rate above service: normal growth.
	dq, _ = Drift(l, 5, Point{Q: 0, Lambda: 8})
	if dq != 3 {
		t.Errorf("dq = %v, want 3", dq)
	}
}

// TestQuadrantTableAIMD reproduces Figure 2: the drift rotation
// pattern (+,+), (+,−), (−,−), (−,+) for quadrants I..IV.
func TestQuadrantTableAIMD(t *testing.T) {
	l := mustAIMD(t, 1, 0.5, 20)
	table := QuadrantTable(l, 10)
	want := [4][2]int{{1, 1}, {1, -1}, {-1, -1}, {-1, 1}}
	for i, row := range table {
		if row.QSign != want[i][0] || row.VSign != want[i][1] {
			t.Errorf("quadrant %v: drift signs (%d, %d), want (%d, %d)",
				row.Quadrant, row.QSign, row.VSign, want[i][0], want[i][1])
		}
	}
}

func TestQuadrantString(t *testing.T) {
	if QuadrantI.String() != "I" || QuadrantIV.String() != "IV" {
		t.Error("Quadrant String mismatch")
	}
	if Quadrant(9).String() != "Quadrant(9)" {
		t.Error("unknown quadrant String mismatch")
	}
}

func TestSegmentKinds(t *testing.T) {
	if SegIncrease.String() != "increase" || SegDecrease.String() != "decrease" ||
		SegBoundary.String() != "boundary" || SegDrained.String() != "drained" ||
		SegSteady.String() != "steady" || SegmentKind(9).String() != "SegmentKind(9)" {
		t.Error("SegmentKind String mismatch")
	}
}

// tracerInput is one call's worth of tracer arguments.
type tracerInput struct {
	name    string
	law     control.AIMD
	mu      float64
	p0      Point
	horizon float64
	tau     float64
}

// badInputs are rejected by every tracer's input check.
func badInputs() []tracerInput {
	ok := control.AIMD{C0: 1, C1: 0.5, QHat: 10}
	start := Point{Q: 0, Lambda: 1}
	nan, inf := math.NaN(), math.Inf(1)
	return []tracerInput{
		{"zero service rate", ok, 0, start, 10, 0},
		{"negative queue", ok, 5, Point{Q: -1, Lambda: 1}, 10, 0},
		{"zero horizon", ok, 5, start, 0, 0},
		{"negative delay", ok, 5, start, 10, -1},
		{"NaN queue", ok, 5, Point{Q: nan, Lambda: 1}, 10, 0},
		{"NaN rate", ok, 5, Point{Q: 0, Lambda: nan}, 10, 0},
		{"+Inf queue", ok, 5, Point{Q: inf, Lambda: 1}, 10, 0},
		{"+Inf service rate", ok, inf, start, 10, 0},
		{"NaN service rate", ok, nan, start, 10, 0},
		{"+Inf horizon", ok, 5, start, inf, 0},
		{"NaN horizon", ok, 5, start, nan, 0},
		{"+Inf delay", ok, 5, start, 10, inf},
		{"zero C1", control.AIMD{C0: 2, C1: 0, QHat: 20}, 10, Point{Q: 30, Lambda: 12}, 10, 0},
		{"zero C0", control.AIMD{C0: 0, C1: 0.5, QHat: 10}, 5, start, 10, 0},
		{"+Inf C1", control.AIMD{C0: 1, C1: inf, QHat: 10}, 5, start, 10, 0},
		{"NaN q̂", control.AIMD{C0: 1, C1: 0.5, QHat: nan}, 5, start, 10, 0},
		{"negative q̂", control.AIMD{C0: 1, C1: 0.5, QHat: -1}, 5, start, 10, 0},
	}
}

func TestTraceExactValidation(t *testing.T) {
	for _, c := range badInputs() {
		if c.tau != 0 {
			continue // TraceExact has no delay
		}
		if path, err := TraceExact(c.law, c.mu, c.p0, c.horizon, 100); err == nil {
			t.Errorf("%s: accepted, %d segments", c.name, len(path.Segments))
		}
	}
	l := mustAIMD(t, 1, 0.5, 10)
	if _, err := TraceExact(l, 5, Point{Q: 0, Lambda: 1}, 10, 0); err == nil {
		t.Error("accepted zero segments")
	}
}

// TestTheorem1Convergence is the headline result: for AIMD with no
// feedback delay, the trajectory is a convergent spiral with limit
// point (q̂, μ) — Theorem 1 / Figure 3.
func TestTheorem1Convergence(t *testing.T) {
	l := mustAIMD(t, 2, 0.8, 20)
	const mu = 10.0
	path, err := TraceExact(l, mu, Point{Q: 0, Lambda: 2}, 2000, 100000)
	if err != nil {
		t.Fatal(err)
	}
	end := path.At(path.TotalTime())
	if math.Abs(end.Q-20) > 0.5 {
		t.Errorf("final queue %v, want near q̂ = 20", end.Q)
	}
	if math.Abs(end.Lambda-mu) > 0.5 {
		t.Errorf("final rate %v, want near μ = 10", end.Lambda)
	}
	// Poincaré amplitudes must contract monotonically.
	ups := path.UpCrossings
	if len(ups) < 3 {
		t.Fatalf("only %d up-crossings, want >= 3", len(ups))
	}
	for i := 1; i < len(ups); i++ {
		a0 := ups[i-1].Lambda - mu
		a1 := ups[i].Lambda - mu
		if a1 >= a0 {
			t.Errorf("amplitude did not contract at crossing %d: %v -> %v", i, a0, a1)
		}
	}
}

// TestTheorem1ParameterProperty checks contraction for random valid
// parameters: Theorem 1 holds for every C0, C1 > 0.
func TestTheorem1ParameterProperty(t *testing.T) {
	f := func(c0Raw, c1Raw, muRaw uint16) bool {
		c0 := float64(c0Raw%500)/100 + 0.05
		c1 := float64(c1Raw%300)/100 + 0.05
		mu := float64(muRaw%50) + 2
		l, err := control.NewAIMD(c0, c1, 15)
		if err != nil {
			return false
		}
		path, err := TraceExact(l, mu, Point{Q: 0, Lambda: mu / 2}, 5000, 200000)
		if err != nil {
			return false
		}
		ups := path.UpCrossings
		if len(ups) < 2 {
			// Overdamped path may settle with a single crossing.
			end := path.At(path.TotalTime())
			return math.Abs(end.Q-15) < 2 && math.Abs(end.Lambda-mu) < 2
		}
		for i := 1; i < len(ups); i++ {
			if ups[i].Lambda-mu >= ups[i-1].Lambda-mu+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceExactSegmentsContinuity(t *testing.T) {
	l := mustAIMD(t, 2, 0.8, 20)
	path, err := TraceExact(l, 10, Point{Q: 0, Lambda: 2}, 200, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if len(path.Segments) < 3 {
		t.Fatalf("too few segments: %d", len(path.Segments))
	}
	for i := 1; i < len(path.Segments); i++ {
		prev := path.Segments[i-1]
		curr := path.Segments[i]
		pe := prev.At(path.Law, path.Mu, prev.Dur)
		if math.Abs(pe.Q-curr.Start.Q) > 1e-6 || math.Abs(pe.Lambda-curr.Start.Lambda) > 1e-6 {
			t.Fatalf("discontinuity between segments %d and %d: %+v vs %+v", i-1, i, pe, curr.Start)
		}
		if math.Abs((prev.T0+prev.Dur)-curr.T0) > 1e-9 {
			t.Fatalf("time gap between segments %d and %d", i-1, i)
		}
	}
}

func TestTraceExactStickyBoundary(t *testing.T) {
	// Start with a large queue and tiny rate: the trajectory must
	// drain, stick at q = 0 while λ climbs to μ, then rise again.
	l := mustAIMD(t, 1, 2.0, 5)
	path, err := TraceExact(l, 10, Point{Q: 50, Lambda: 0}, 500, 10000)
	if err != nil {
		t.Fatal(err)
	}
	foundBoundary := false
	for _, sg := range path.Segments {
		if sg.Kind == SegBoundary {
			foundBoundary = true
			if sg.Start.Q != 0 {
				t.Errorf("boundary segment starts at q = %v, want 0", sg.Start.Q)
			}
			if sg.Start.Lambda >= 10 {
				t.Errorf("boundary segment starts at λ = %v, want < μ", sg.Start.Lambda)
			}
			end := sg.At(path.Law, path.Mu, sg.Dur)
			if math.Abs(end.Lambda-10) > 1e-9 {
				t.Errorf("boundary segment ends at λ = %v, want μ = 10", end.Lambda)
			}
		}
	}
	if !foundBoundary {
		t.Fatal("trajectory never stuck at the empty-queue boundary")
	}
	// Queue must never be negative anywhere on the path.
	ts, pts := path.Sample(2000)
	_ = ts
	for i, p := range pts {
		if p.Q < -1e-9 {
			t.Fatalf("negative queue %v at sample %d", p.Q, i)
		}
	}
}

func TestTraceExactFromEquilibrium(t *testing.T) {
	l := mustAIMD(t, 1, 0.5, 10)
	path, err := TraceExact(l, 5, Point{Q: 10, Lambda: 5}, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	end := path.At(100)
	if math.Abs(end.Q-10) > 1e-9 || math.Abs(end.Lambda-5) > 1e-9 {
		t.Fatalf("equilibrium start drifted to %+v", end)
	}
}

func TestExactPathAtClamping(t *testing.T) {
	l := mustAIMD(t, 1, 0.5, 10)
	path, err := TraceExact(l, 5, Point{Q: 0, Lambda: 1}, 50, 1000)
	if err != nil {
		t.Fatal(err)
	}
	before := path.At(-1)
	if before.Q != 0 || before.Lambda != 1 {
		t.Errorf("At(-1) = %+v, want initial state", before)
	}
	after := path.At(path.TotalTime() + 100)
	final := path.At(path.TotalTime())
	if math.Abs(after.Q-final.Q) > 1e-9 {
		t.Errorf("At beyond end = %+v, want clamp to final %+v", after, final)
	}
}

// TestExactVsNumeric cross-validates the closed-form tracer against
// the event-located RK4 tracer on the same problem.
func TestExactVsNumeric(t *testing.T) {
	l := mustAIMD(t, 2, 0.8, 20)
	const mu = 10.0
	p0 := Point{Q: 0, Lambda: 2}
	path, err := TraceExact(l, mu, p0, 60, 10000)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := traceAll(l, mu, p0, 60, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tr.Len(); i += 50 {
		tt, y := tr.At(i)
		exact := path.At(tt)
		if math.Abs(y[0]-exact.Q) > 0.05 {
			t.Fatalf("t=%v: numeric q=%v, exact q=%v", tt, y[0], exact.Q)
		}
		if math.Abs(y[1]-exact.Lambda) > 0.05 {
			t.Fatalf("t=%v: numeric λ=%v, exact λ=%v", tt, y[1], exact.Lambda)
		}
	}
}

func TestTraceValidation(t *testing.T) {
	for _, c := range badInputs() {
		if c.tau != 0 {
			continue // Trace has no delay
		}
		if _, err := traceAll(c.law, c.mu, c.p0, c.horizon, 0.01); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	l := mustAIMD(t, 1, 0.5, 10)
	for _, dt := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := traceAll(l, 5, Point{}, 1, dt); err == nil {
			t.Errorf("accepted step %v", dt)
		}
	}
	aiad := control.AIAD{C0: 1, C1: 1, QHat: math.NaN()}
	if _, err := traceAll(aiad, 5, Point{}, 1, 0.01); err == nil {
		t.Error("accepted a NaN q̂ for AIAD")
	}
	// A step past RK4's stability limit on the decrease branch
	// (C1·dt = 3.7) carries the queue from q̂ to −128 by t = 5.8
	// without crossing an exit event.
	if _, err := traceAll(mustAIMD(t, 2.4, 2.4, 48), 12, Point{Q: 152, Lambda: 12}, 12, 1.56); err == nil {
		t.Error("traced an RK4-unstable step below the empty queue without an error")
	}
}

// TestAIADNeutralCycle: the linear-decrease law must produce a
// non-contracting (neutral) cycle — the algorithm-induced oscillation
// the paper distinguishes from delay-induced oscillation.
func TestAIADNeutralCycle(t *testing.T) {
	l, err := control.NewAIAD(1, 1, 20)
	if err != nil {
		t.Fatal(err)
	}
	const mu = 10.0
	sec := Section{QHat: 20, Mu: mu}
	if err := Trace(l, mu, Point{Q: 10, Lambda: 12}, 300, 1e-3, sec.Add); err != nil {
		t.Fatal(err)
	}
	crossings := sec.Crossings
	if len(crossings) < 4 {
		t.Fatalf("only %d crossings", len(crossings))
	}
	behavior, ratio := Classify(crossings, mu, 0.02)
	if behavior != NeutralCycle {
		t.Fatalf("AIAD classified as %v (ratio %v), want neutral-cycle", behavior, ratio)
	}
}

// TestAIMDClassifiedConverging: the same classifier must report the
// AIMD spiral as converging.
func TestAIMDClassifiedConverging(t *testing.T) {
	l := mustAIMD(t, 2, 0.8, 20)
	const mu = 10.0
	sec := Section{QHat: 20, Mu: mu}
	if err := Trace(l, mu, Point{Q: 0, Lambda: 2}, 400, 1e-3, sec.Add); err != nil {
		t.Fatal(err)
	}
	behavior, ratio := Classify(sec.Crossings, mu, 0.02)
	if behavior != Converging {
		t.Fatalf("AIMD classified as %v (ratio %v), want converging", behavior, ratio)
	}
	if !(ratio < 1) {
		t.Fatalf("contraction ratio %v, want < 1", ratio)
	}
}

func TestClassifyInconclusive(t *testing.T) {
	b, _ := Classify(nil, 10, 0.02)
	if b != Inconclusive {
		t.Fatalf("Classify(nil) = %v, want inconclusive", b)
	}
	b, _ = Classify([]Crossing{{T: 1, Lambda: 11}, {T: 2, Lambda: 10.5}}, 10, 0.02)
	if b != Inconclusive {
		t.Fatalf("two crossings = %v, want inconclusive", b)
	}
}

func TestBehaviorString(t *testing.T) {
	if Converging.String() != "converging" || NeutralCycle.String() != "neutral-cycle" ||
		Diverging.String() != "diverging" || Inconclusive.String() != "inconclusive" {
		t.Error("Behavior String mismatch")
	}
	if Behavior(42).String() != "Behavior(42)" {
		t.Error("unknown Behavior String mismatch")
	}
}

func TestConvergenceTimeAndOvershoot(t *testing.T) {
	l := mustAIMD(t, 2, 0.8, 20)
	const mu = 10.0
	settling := Settling{Law: l, Mu: mu, Eps: 0.05}
	over := Overshoot{QHat: 20}
	err := Trace(l, mu, Point{Q: 0, Lambda: 2}, 600, 1e-3, func(t float64, y []float64) {
		settling.Add(t, y)
		over.Add(t, y)
	})
	if err != nil {
		t.Fatal(err)
	}
	ct := settling.Time()
	if math.IsNaN(ct) {
		t.Fatal("trajectory never converged to within 5%")
	}
	if ct <= 0 || ct >= 600 {
		t.Fatalf("convergence time %v out of range", ct)
	}
	if over.Max <= 0 {
		t.Fatalf("overshoot %v, want positive (the spiral overshoots q̂)", over.Max)
	}
}

func TestEquilibriumHelpers(t *testing.T) {
	l := mustAIMD(t, 1, 0.5, 10)
	eq := EquilibriumPoint(l, 5)
	if eq.Q != 10 || eq.Lambda != 5 {
		t.Fatalf("EquilibriumPoint = %+v", eq)
	}
	if d := DistanceToEquilibrium(l, 5, eq); d != 0 {
		t.Fatalf("distance at equilibrium = %v", d)
	}
	if d := DistanceToEquilibrium(l, 5, Point{Q: 20, Lambda: 5}); d != 1 {
		t.Fatalf("distance = %v, want 1", d)
	}
}

// Property: exact-path queue is never negative and λ never negative,
// for random initial conditions.
func TestExactPathInvariants(t *testing.T) {
	f := func(q0Raw, l0Raw uint16) bool {
		q0 := float64(q0Raw % 100)
		l0 := float64(l0Raw%300) / 10
		l := control.AIMD{C0: 1.5, C1: 0.6, QHat: 25}
		path, err := TraceExact(l, 8, Point{Q: q0, Lambda: l0}, 300, 50000)
		if err != nil {
			return false
		}
		_, pts := path.Sample(500)
		for _, p := range pts {
			if p.Q < -1e-9 || p.Lambda < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTraceExact(b *testing.B) {
	l := control.AIMD{C0: 2, C1: 0.8, QHat: 20}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := TraceExact(l, 10, Point{Q: 0, Lambda: 2}, 500, 100000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceNumeric(b *testing.B) {
	l := control.AIMD{C0: 2, C1: 0.8, QHat: 20}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Trace(l, 10, Point{Q: 0, Lambda: 2}, 100, 1e-2, func(float64, []float64) {}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTraceAllocationIndependentOfHorizon: Trace streams its samples
// instead of storing them, so E8's AIAD trace (dt = 1e-3) allocates
// no more bytes over 400 s, about 400k samples, than over 40 s.
func TestTraceAllocationIndependentOfHorizon(t *testing.T) {
	if testing.Short() {
		t.Skip("400k-sample trace")
	}
	law, err := control.NewAIAD(2, 8, 20)
	if err != nil {
		t.Fatal(err)
	}
	traced := func(horizon float64) (samples int, bytes uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := Trace(law, 10, Point{Q: 10, Lambda: 12}, horizon, 1e-3, func(float64, []float64) { samples++ })
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return samples, after.TotalAlloc - before.TotalAlloc
	}
	short, shortBytes := traced(40)
	long, longBytes := traced(400)
	t.Logf("40 s: %d samples, %d B; 400 s: %d samples, %d B", short, shortBytes, long, longBytes)
	if long < 400000 {
		t.Fatalf("%d samples, want at least 400000", long)
	}
	if longBytes > shortBytes+1024 {
		t.Errorf("Trace allocated %d B over 400 s and %d B over 40 s, want at most 1 KiB more", longBytes, shortBytes)
	}
}

// TestTraceVisitsSnappedSegmentEnds: the visitor sees each segment's
// last sample after it is snapped onto the boundary the event found,
// so every up-crossing of a converging AIMD spiral leaves a sample
// exactly on q̂, and the samples stream in time order from (0, p0).
func TestTraceVisitsSnappedSegmentEnds(t *testing.T) {
	l := mustAIMD(t, 2, 0.8, 20)
	p0 := Point{Q: 0, Lambda: 2}
	tr, err := traceAll(l, 10, p0, 60, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if t0, y0 := tr.At(0); t0 != 0 || y0[0] != p0.Q || y0[1] != p0.Lambda {
		t.Fatalf("first sample (%v, %v), want (0, %v)", t0, y0, p0)
	}
	onLine := 0
	for i := 1; i < tr.Len(); i++ {
		ti, y := tr.At(i)
		if prev, _ := tr.At(i - 1); ti < prev {
			t.Fatalf("sample %d at t=%v precedes sample %d at %v", i, ti, i-1, prev)
		}
		if y[0] == 20 {
			onLine++
		}
	}
	sec := Section{QHat: 20, Mu: 10}
	if err := Trace(l, 10, p0, 60, 1e-3, sec.Add); err != nil {
		t.Fatal(err)
	}
	if len(sec.Crossings) < 3 || onLine < len(sec.Crossings) {
		t.Errorf("%d samples exactly on q̂ for %d up-crossings, want at least one each", onLine, len(sec.Crossings))
	}
}

// traceAll runs Trace and collects every sample it visits.
func traceAll(law control.Law, mu float64, p0 Point, t1, dt float64) (*ode.Trajectory, error) {
	var tr ode.Trajectory
	err := Trace(law, mu, p0, t1, dt, tr.Append)
	return &tr, err
}
