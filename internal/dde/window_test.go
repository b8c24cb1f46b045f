package dde

import (
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// interpOracle is Lag's lookup done over a full, never-pruned sample
// list: the first n samples of a Stride-1 result are exactly what the
// solver had stored when the step after sample n-1 began.
func interpOracle(times []float64, states [][]float64, hist History, t0, t float64, i int) float64 {
	if t <= t0 {
		return hist(t)[i]
	}
	k := sort.SearchFloat64s(times, t)
	if k == 0 {
		return states[0][i]
	}
	if k >= len(times) {
		return states[len(states)-1][i]
	}
	tL, tR := times[k-1], times[k]
	yL, yR := states[k-1][i], states[k][i]
	if tR == tL {
		return yR
	}
	frac := (t - tL) / (tR - tL)
	return yL + frac*(yR-yL)
}

// TestLagMatchesUnprunedOracle: every value Lag returns through the
// pruned window is bit-identical to linear interpolation over the
// unpruned Stride-1 result of the same solve, for delays of one step,
// a fractional number of steps and many prune windows, and for a
// delay-free run reading the current state through Lag(i, 0).
func TestLagMatchesUnprunedOracle(t *testing.T) {
	const h = 1e-3
	cycles := 3000
	if testing.Short() {
		cycles = 300
	}
	t1 := float64(cycles*pruneEvery) * h
	hist := func(tt float64) []float64 { return []float64{1 + 0.5*math.Sin(3*tt), 0.2 * tt} }

	for _, tc := range []struct {
		name   string
		delays []float64
	}{
		{"delayed", []float64{h, 3.7 * h, 1000 * h}},
		{"delay-free", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lags := tc.delays
			if lags == nil {
				lags = []float64{0}
			}
			// check is nil on the reference solve; on the checking solve
			// it compares one Lag return value against the oracle.
			var check func(i int, delay, got float64)
			calls := 0
			f := func(tt float64, y []float64, lag Lagger, dydt []float64) {
				var s0, s1 float64
				for k, d := range lags {
					a, b := lag.Lag(0, d), lag.Lag(1, d)
					if check != nil {
						check(0, d, a)
						check(1, d, b)
					}
					w := 1 / float64(k+2)
					s0 += w * a
					s1 += w * b
				}
				dydt[0] = -0.8*s1 + 0.05*math.Sin(tt)
				dydt[1] = 0.8*s0 - 0.3*y[1]
				calls++
			}
			ref, err := Solve(f, hist, tc.delays, 0, t1, h, Options{Stride: 1})
			if err != nil {
				t.Fatal(err)
			}

			calls = 0
			checked := 0
			var evalT float64
			check = func(i int, delay, got float64) {
				// Four stage evaluations per step; during step s the
				// window's newest sample is ref sample s.
				s := calls / 4
				want := interpOracle(ref.Times[:s+1], ref.States[:s+1], hist, 0, evalT-delay, i)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("step %d, Lag(%d, %v) at t=%v: got %v, oracle %v", s, i, delay, evalT, got, want)
				}
				checked++
			}
			g := func(tt float64, y []float64, lag Lagger, dydt []float64) {
				evalT = tt
				f(tt, y, lag, dydt)
			}
			// The stride only thins the record; it keeps the second
			// result small.
			res, err := Solve(g, hist, tc.delays, 0, t1, h, Options{Stride: pruneEvery})
			if err != nil {
				t.Fatal(err)
			}
			if want := 4 * cycles * pruneEvery * 2 * len(lags); checked < want {
				t.Fatalf("checked %d Lag values, want at least %d", checked, want)
			}
			_, yRef := ref.Last()
			_, y := res.Last()
			if y[0] != yRef[0] || y[1] != yRef[1] {
				t.Fatalf("checking solve ended at %v, reference at %v", y, yRef)
			}
		})
	}
}

// TestSolveAllocationsBounded: a solve allocates a fixed number of
// objects however many steps it takes; the history window stays
// bounded and Result rows come from one preallocated block.
func TestSolveAllocationsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("10⁷-step solve")
	}
	const h = 1e-3
	y0 := []float64{1, 0}
	hist := func(float64) []float64 { return y0 }
	// A harmonic oscillator (delayed in the second case): the state
	// stays O(1), away from the slow subnormal range a decaying
	// solution would reach.
	plain := func(tt float64, y []float64, lag Lagger, dydt []float64) {
		dydt[0] = y[1]
		dydt[1] = -y[0]
	}
	delayed := func(tt float64, y []float64, lag Lagger, dydt []float64) {
		dydt[0] = lag.Lag(1, 1000*h)
		dydt[1] = -y[0]
	}
	allocs := func(f System, delays []float64, steps float64) float64 {
		return testing.AllocsPerRun(1, func() {
			if _, err := Solve(f, hist, delays, 0, steps*h, h, Options{Stride: 200}); err != nil {
				t.Fatal(err)
			}
		})
	}
	// The first GC cycle starts the runtime's mark workers, which are
	// counted as allocations; start them before measuring.
	runtime.GC()
	for _, tc := range []struct {
		name   string
		f      System
		delays []float64
	}{
		{"delay-free", plain, nil},
		{"delayed", delayed, []float64{1000 * h}},
	} {
		// 200 steps end before the first prune: the count of a solve
		// whose window never filled.
		short := allocs(tc.f, tc.delays, 200)
		base := allocs(tc.f, tc.delays, 1e6)
		if base >= 200 || base > short+1 {
			t.Fatalf("%s 10⁶-step solve made %v allocations (%v at 200 steps), want < 200 and no window growth", tc.name, base, short)
		}
	}
	// Ten times the horizon needs no more history and, with the row
	// estimate exact to within its slack, no fallback row block.
	base, long := allocs(plain, nil, 1e6), allocs(plain, nil, 1e7)
	if long > base+1 {
		t.Fatalf("delay-free 10⁷-step solve made %v allocations vs %v at 10⁶ steps", long, base)
	}
}

// TestUndeclaredDelayIsError: a Lag beyond every declared delay would
// read a pruned window, so Solve must report it instead of returning a
// solution (and must not panic).
func TestUndeclaredDelayIsError(t *testing.T) {
	hist := func(float64) []float64 { return []float64{1} }
	for _, tc := range []struct {
		name     string
		declared []float64
		asked    float64
	}{
		{"no delays declared", nil, 0.25},
		{"beyond the largest", []float64{0.1, 0.5}, 0.75},
		{"NaN", []float64{0.5}, math.NaN()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := func(tt float64, y []float64, lag Lagger, dydt []float64) {
				dydt[0] = -lag.Lag(0, tc.asked)
			}
			res, err := Solve(f, hist, tc.declared, 0, 5, 1e-3, Options{})
			if err == nil {
				t.Fatalf("undeclared delay %v accepted (%d samples)", tc.asked, res.Len())
			}
			if !strings.Contains(err.Error(), "delay") {
				t.Fatalf("error %q does not name the delay", err)
			}
		})
	}
}
