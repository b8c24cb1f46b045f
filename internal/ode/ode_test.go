package ode

import (
	"math"
	"testing"
	"testing/quick"
)

// expSystem is dy/dt = y, solution y(t) = y0*e^t.
func expSystem(t float64, y, dydt []float64) { dydt[0] = y[0] }

// fixedSolve integrates dy/dt = f from t0 to t1 with fixed step h
// through SolveWithEvents with no events, the way a caller without
// switching surfaces drives a stepper, and returns every sample,
// (t0, y0) included. The driver integrates in place, so fixedSolve
// hands it a copy of y0.
func fixedSolve(f System, s Stepper, y0 []float64, t0, t1, h float64) (*Trajectory, error) {
	var tr Trajectory
	tr.Append(t0, y0)
	y := append([]float64(nil), y0...)
	if _, err := SolveWithEvents(tr.Append, f, s, y, t0, t1, h, 1, nil, &Workspace{}); err != nil {
		return nil, err
	}
	return &tr, nil
}

// oscillator is the harmonic oscillator y” = -y as a 2-D system,
// solution (cos t, -sin t) from (1, 0).
func oscillator(t float64, y, dydt []float64) {
	dydt[0] = y[1]
	dydt[1] = -y[0]
}

func TestRK4Exponential(t *testing.T) {
	s := NewRK4(1)
	tr, err := fixedSolve(expSystem, s, []float64{1}, 0, 1, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	_, y := tr.Last()
	if got, want := y[0], math.E; math.Abs(got-want) > 1e-10 {
		t.Fatalf("y(1) = %v, want e = %v", got, want)
	}
}

// TestConvergenceOrders verifies RK4's formal order: halving h shrinks
// the error by ~16.
func TestConvergenceOrders(t *testing.T) {
	errAt := func(s Stepper, h float64) float64 {
		tr, err := fixedSolve(expSystem, s, []float64{1}, 0, 1, h)
		if err != nil {
			t.Fatal(err)
		}
		_, y := tr.Last()
		return math.Abs(y[0] - math.E)
	}
	r1 := errAt(NewRK4(1), 1e-1)
	r2 := errAt(NewRK4(1), 5e-2)
	if ratio := r1 / r2; ratio < 12 || ratio > 20 {
		t.Errorf("RK4 error ratio %v, want ~16", ratio)
	}
}

func TestRK4Oscillator(t *testing.T) {
	s := NewRK4(2)
	tr, err := fixedSolve(oscillator, s, []float64{1, 0}, 0, 2*math.Pi, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	_, y := tr.Last()
	if math.Abs(y[0]-1) > 1e-9 || math.Abs(y[1]) > 1e-9 {
		t.Fatalf("after one period y = %v, want (1, 0)", y)
	}
}

// TestFixedSolveLandsOnEnd: SolveWithEvents shortens its final step
// to land exactly on t1.
func TestFixedSolveLandsOnEnd(t *testing.T) {
	s := NewRK4(1)
	tr, err := fixedSolve(expSystem, s, []float64{1}, 0, 0.35, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	tEnd, _ := tr.Last()
	if math.Abs(tEnd-0.35) > 1e-12 {
		t.Fatalf("final time %v, want 0.35", tEnd)
	}
}

// TestFixedSolveValidation: SolveWithEvents rejects a zero step and a
// reversed interval.
func TestFixedSolveValidation(t *testing.T) {
	s := NewRK4(1)
	if _, err := fixedSolve(expSystem, s, []float64{1}, 0, 1, 0); err == nil {
		t.Error("expected error for zero step")
	}
	if _, err := fixedSolve(expSystem, s, []float64{1}, 1, 0, 0.1); err == nil {
		t.Error("expected error for reversed interval")
	}
}

// TestFixedSolveDoesNotMutateInitial: SolveWithEvents integrates the
// caller's y in place, leaving the last sample in it, so fixedSolve's
// copy keeps y0 as it was.
func TestFixedSolveDoesNotMutateInitial(t *testing.T) {
	y0 := []float64{1}
	s := NewRK4(1)
	if _, err := fixedSolve(expSystem, s, y0, 0, 1, 0.1); err != nil {
		t.Fatal(err)
	}
	if y0[0] != 1 {
		t.Fatalf("initial condition mutated to %v", y0[0])
	}
	var tr Trajectory
	y := []float64{1}
	if _, err := SolveWithEvents(tr.Append, expSystem, s, y, 0, 1, 0.1, 1, nil, &Workspace{}); err != nil {
		t.Fatal(err)
	}
	if _, last := tr.Last(); y[0] != last[0] || y[0] == 1 {
		t.Fatalf("y = %v after the solve, want the last sample %v", y[0], last[0])
	}
}

func TestTrajectoryAccessors(t *testing.T) {
	s := NewRK4(1)
	tr, err := fixedSolve(expSystem, s, []float64{1}, 0, 1, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 5 {
		t.Fatalf("Len = %d, want 5", tr.Len())
	}
	t0, y0 := tr.At(0)
	if t0 != 0 || y0[0] != 1 {
		t.Fatalf("At(0) = (%v, %v), want (0, [1])", t0, y0)
	}
}

// TestTrajectoryRowsAreCapped: a row read through At or Last has its
// capacity limited to the row, so appending to it copies the row
// rather than overwriting the sample after it, and a write through
// the view changes the sample while nothing has grown the store.
func TestTrajectoryRowsAreCapped(t *testing.T) {
	tr := NewTrajectory(2, 3)
	tr.Append(0, []float64{1, 2})
	tr.Append(1, []float64{3, 4})
	_, row := tr.At(0)
	if cap(row) != 2 {
		t.Fatalf("cap(At(0)) = %d, want 2", cap(row))
	}
	_ = append(row, -1, -1)
	if _, y := tr.At(1); y[0] != 3 || y[1] != 4 {
		t.Fatalf("appending to row 0 overwrote sample 1: %v", y)
	}
	_, last := tr.Last()
	tr.Append(2, []float64{5, 6}) // fits: the store does not grow
	_ = append(last, -1, -1)
	if _, y := tr.At(2); y[0] != 5 || y[1] != 6 {
		t.Fatalf("appending to a row from Last overwrote the next sample: %v", y)
	}
	last[0] = 7
	if _, y := tr.At(1); y[0] != 7 {
		t.Fatalf("a write through Last's view did not reach the sample: %v", y)
	}
}

// TestTrajectoryGrowsByDoubling: from an empty zero Trajectory the
// store reallocates only when full, doubling, and keeps every sample.
func TestTrajectoryGrowsByDoubling(t *testing.T) {
	var tr Trajectory
	grows := 0
	for i := range 1000 {
		c := cap(tr.Times)
		tr.Append(float64(i), []float64{float64(i), -float64(i)})
		if cap(tr.Times) != c {
			grows++
			if c > 0 && cap(tr.Times) != 2*c {
				t.Fatalf("capacity %d grew to %d, want %d", c, cap(tr.Times), 2*c)
			}
		}
	}
	if grows != 7 { // 16, 32, ..., 1024
		t.Errorf("store grew %d times for 1000 samples, want 7", grows)
	}
	for i := range tr.Len() {
		if ti, y := tr.At(i); ti != float64(i) || y[0] != float64(i) || y[1] != -float64(i) {
			t.Fatalf("sample %d = (%v, %v)", i, ti, y)
		}
	}
}

// TestEventCallsPerStep: a crossing-free solve of N steps evaluates
// each event function N+1 times, once at (t0, y0) and once at every
// appended sample: the value found after a step is reused as the next
// step's starting value.
func TestEventCallsPerStep(t *testing.T) {
	const n = 100
	calls := [2]int{}
	ev := func(k int, offset float64) EventFunc {
		return func(tt float64, y []float64) float64 {
			calls[k]++
			return y[0] + offset
		}
	}
	var tr Trajectory
	exit, err := SolveWithEvents(tr.Append, expSystem, NewRK4(1), []float64{1}, 0, 1, 1.0/n, 1e-9,
		[]EventFunc{ev(0, 0), ev(1, 10)}, &Workspace{})
	if err != nil {
		t.Fatal(err)
	}
	if exit != -1 || tr.Len() != n {
		t.Fatalf("event %d and %d samples after the initial one, want -1 and %d", exit, tr.Len(), n)
	}
	for k, c := range calls {
		if c != n+1 {
			t.Errorf("event %d called %d times, want %d", k, c, n+1)
		}
	}
}

// TestEventCrossing locates the zero of cos(t) for y' = -sin(t),
// i.e. the event y(t) = cos(t) crossing zero at t = pi/2, and stops
// there with the crossing as the last sample and in y.
func TestEventCrossing(t *testing.T) {
	f := func(tt float64, y, dydt []float64) { dydt[0] = -math.Sin(tt) }
	ev := func(tt float64, y []float64) float64 { return y[0] }
	never := func(tt float64, y []float64) float64 { return 1 }
	s := NewRK4(1)
	var tr Trajectory
	y := []float64{1}
	exit, err := SolveWithEvents(tr.Append, f, s, y, 0, 3, 0.01, 1e-10,
		[]EventFunc{never, ev}, &Workspace{})
	if err != nil {
		t.Fatal(err)
	}
	if exit != 1 {
		t.Fatalf("stopped at event %d, want 1", exit)
	}
	tEv, last := tr.Last()
	if math.Abs(tEv-math.Pi/2) > 1e-6 {
		t.Fatalf("event at t = %v, want pi/2 = %v", tEv, math.Pi/2)
	}
	if y[0] != last[0] || math.Abs(y[0]) > 1e-6 {
		t.Fatalf("y = %v and last sample %v at the crossing, want both ~0", y[0], last[0])
	}
}

// TestEventBisectionStopsAtFloatResolution: a tolerance finer than
// the float spacing of the step fraction ends the bisection when no
// float is left inside the bracket, instead of looping forever. The
// event is a step function, so no bisection point lands on its zero.
func TestEventBisectionStopsAtFloatResolution(t *testing.T) {
	ev := []EventFunc{func(tt float64, y []float64) float64 {
		if y[0] < 2 {
			return -1
		}
		return 1
	}}
	var tr Trajectory
	y := []float64{1}
	exit, err := SolveWithEvents(tr.Append, expSystem, NewRK4(1), y, 0, 1, 1, 1e-300, ev, &Workspace{})
	if err != nil {
		t.Fatal(err)
	}
	if tEv, _ := tr.Last(); exit != 0 || math.Abs(tEv-math.Ln2) > 1e-3 {
		t.Fatalf("stopped at event %d, t = %v; want event 0 near ln 2", exit, tEv)
	}
}

// TestEventMutation: a caller that changes the state at an event and
// restarts the driver from there chains segments into one trajectory.
// A bouncing ball y” = -1, reflected at y = 0 by the caller, keeps
// bouncing rather than falling through the floor, with one Workspace
// reused for every segment.
func TestEventMutation(t *testing.T) {
	fall := func(tt float64, y, dydt []float64) {
		dydt[0] = y[1]
		dydt[1] = -1
	}
	floor := []EventFunc{func(tt float64, y []float64) float64 { return y[0] }}
	s := NewRK4(2)
	var w Workspace
	tr := &Trajectory{}
	y := []float64{1, 0}
	tr.Append(0, y)
	var bounces []float64
	for tt := 0.0; tt < 10; {
		exit, err := SolveWithEvents(tr.Append, fall, s, y, tt, 10, 0.001, 1e-9, floor, &w)
		if err != nil {
			t.Fatal(err)
		}
		tt, _ = tr.Last()
		if exit < 0 {
			break
		}
		bounces = append(bounces, tt)
		y[0], y[1] = 0, -y[1] // perfectly elastic bounce
	}
	if len(bounces) < 3 {
		t.Fatalf("only %d bounces in 10s, want >= 3", len(bounces))
	}
	// First touchdown of a unit drop is at t = sqrt(2), and every
	// later one 2·sqrt(2) after the one before.
	for k, got := range bounces {
		if want := float64(2*k+1) * math.Sqrt2; math.Abs(got-want) > 1e-5 {
			t.Fatalf("bounce %d at %v, want %v", k, got, want)
		}
	}
	for i := 0; i < tr.Len(); i++ {
		_, y := tr.At(i)
		if y[0] < -1e-6 {
			t.Fatalf("ball fell through the floor: y = %v", y[0])
		}
	}
}

// TestSolveWithEventsStopsAtFirstEvent: the driver returns at the
// first crossing, the floor at t = sqrt(2), and leaves the rest of
// the interval to the caller.
func TestSolveWithEventsStopsAtFirstEvent(t *testing.T) {
	fall := func(tt float64, y, dydt []float64) {
		dydt[0] = y[1]
		dydt[1] = -1
	}
	floor := func(tt float64, y []float64) float64 { return y[0] }
	var tr Trajectory
	y := []float64{1, 0}
	exit, err := SolveWithEvents(tr.Append, fall, NewRK4(2), y, 0, 100, 0.001, 1e-9,
		[]EventFunc{floor}, &Workspace{})
	if err != nil {
		t.Fatal(err)
	}
	if tEnd, _ := tr.Last(); exit != 0 || math.Abs(tEnd-math.Sqrt2) > 1e-5 {
		t.Fatalf("stopped at event %d, t = %v; want event 0 at sqrt(2)", exit, tEnd)
	}
}

// TestSolveWithEventsAllocatesNothing: with a Workspace already grown
// to the state and event counts, a solve into a presized trajectory
// allocates nothing.
func TestSolveWithEventsAllocatesNothing(t *testing.T) {
	floor := []EventFunc{func(tt float64, y []float64) float64 { return y[0] - 2 }}
	s := NewRK4(1)
	var w Workspace
	y := []float64{1}
	tr := NewTrajectory(1, 1000)
	allocs := testing.AllocsPerRun(10, func() {
		y[0] = 1
		tr.Times, tr.states = tr.Times[:0], tr.states[:0]
		if _, err := SolveWithEvents(tr.Append, expSystem, s, y, 0, 1, 0.01, 1e-9, floor, &w); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per solve, want 0", allocs)
	}
}

func TestSolveWithEventsValidation(t *testing.T) {
	s := NewRK4(1)
	if _, err := SolveWithEvents((&Trajectory{}).Append, expSystem, s, []float64{1}, 0, 1, 0, 1e-9, nil, &Workspace{}); err == nil {
		t.Error("expected error for zero step")
	}
	if _, err := SolveWithEvents((&Trajectory{}).Append, expSystem, s, []float64{1}, 0, 1, 0.1, 0, nil, &Workspace{}); err == nil {
		t.Error("expected error for zero tolerance")
	}
}

// Property: for linear decay y' = -k y the RK4 solution stays within
// a tight factor of the exact exponential for random rates and spans.
func TestRK4LinearDecayProperty(t *testing.T) {
	f := func(kRaw, spanRaw uint8) bool {
		k := float64(kRaw%50)/10 + 0.1
		span := float64(spanRaw%40)/10 + 0.1
		sys := func(t float64, y, dydt []float64) { dydt[0] = -k * y[0] }
		s := NewRK4(1)
		tr, err := fixedSolve(sys, s, []float64{1}, 0, span, 1e-3)
		if err != nil {
			return false
		}
		_, y := tr.Last()
		want := math.Exp(-k * span)
		return math.Abs(y[0]-want) < 1e-6*(1+want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the RK4 oscillator conserves energy to high accuracy over
// one period for random initial conditions.
func TestOscillatorEnergyProperty(t *testing.T) {
	f := func(aRaw, bRaw int8) bool {
		a := float64(aRaw) / 16
		b := float64(bRaw) / 16
		if a == 0 && b == 0 {
			return true
		}
		s := NewRK4(2)
		tr, err := fixedSolve(oscillator, s, []float64{a, b}, 0, 2*math.Pi, 1e-3)
		if err != nil {
			return false
		}
		e0 := a*a + b*b
		_, y := tr.Last()
		e1 := y[0]*y[0] + y[1]*y[1]
		return math.Abs(e1-e0) < 1e-8*(1+e0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRK4Step(b *testing.B) {
	s := NewRK4(2)
	y := []float64{1, 0}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Step(oscillator, 0, 1e-3, y)
	}
}
