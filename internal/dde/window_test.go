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
// solver had stored when the step after sample n-1 began. It reads
// the samples through At.
func interpOracle(ref *Result, n int, hist History, t0, t float64, i int) float64 {
	if t <= t0 {
		return hist(t)[i]
	}
	k := sort.SearchFloat64s(ref.Times[:n], t)
	if k == 0 {
		_, y := ref.At(0)
		return y[i]
	}
	if k >= n {
		_, y := ref.At(n - 1)
		return y[i]
	}
	tL, yL := ref.At(k - 1)
	tR, yR := ref.At(k)
	if tR == tL {
		return yR[i]
	}
	frac := (t - tL) / (tR - tL)
	return yL[i] + frac*(yR[i]-yL[i])
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
				want := interpOracle(ref, s+1, hist, 0, evalT-delay, i)
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

// oracleSystem is the two-state delayed system the lookup tests solve:
// every eval reads both components at every delay in lags, and the
// tanh keeps the state bounded however long the delays.
func oracleSystem(lags []float64, check func(lag Lagger, i int, delay, got float64)) System {
	return func(tt float64, y []float64, lag Lagger, dydt []float64) {
		var s0, s1 float64
		for k, d := range lags {
			a, b := lag.Lag(0, d), lag.Lag(1, d)
			if check != nil {
				check(lag, 0, d, a)
				check(lag, 1, d, b)
			}
			w := 1 / float64(k+2)
			s0 += w * a
			s1 += w * b
		}
		dydt[0] = -math.Tanh(s1) + 0.05*math.Sin(tt)
		dydt[1] = math.Tanh(s0) - 0.3*y[1]
	}
}

// oracleHist is the pre-initial state of the lookup tests.
func oracleHist(tt float64) []float64 { return []float64{1 + 0.5*math.Sin(3*tt), 0.2 * tt} }

// lagCounts is what solveAgainstOracle checked: every Lag value, and
// those read in the first evaluation after a prune compacted the
// window.
type lagCounts struct{ checked, afterPrune int }

// solveAgainstOracle solves oracleSystem once at Stride 1 and once at
// stride, holding every Lag value of the second solve bit-identical to
// interpOracle over the first solve's samples, and the two final
// states equal.
func solveAgainstOracle(t testing.TB, delays []float64, t1, h float64, stride int) lagCounts {
	t.Helper()
	lags := append([]float64{0}, delays...)
	ref, err := Solve(oracleSystem(lags, nil), oracleHist, delays, 0, t1, h, Options{Stride: 1})
	if err != nil {
		t.Fatal(err)
	}
	var (
		n       lagCounts
		evalT   float64
		evals   int
		oldest  = math.Inf(-1)
		pruned  bool
		lastEvl = -1
	)
	check := func(lag Lagger, i int, delay, got float64) {
		if b := lag.(*buffer); evals != lastEvl {
			// A new evaluation: a prune since the last one shows as a
			// newer oldest sample.
			lastEvl = evals
			pruned = b.times[0] != oldest && !math.IsInf(oldest, -1)
			oldest = b.times[0]
		}
		// Four stage evaluations per step; during step s the window's
		// newest sample is ref sample s.
		s := evals / 4
		want := interpOracle(ref, s+1, oracleHist, 0, evalT-delay, i)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("h=%v delays=%v step %d: Lag(%d, %v) at t=%v: got %v, oracle %v", h, delays, s, i, delay, evalT, got, want)
		}
		n.checked++
		if pruned {
			n.afterPrune++
		}
	}
	inner := oracleSystem(lags, check)
	g := func(tt float64, y []float64, lag Lagger, dydt []float64) {
		evalT = tt
		inner(tt, y, lag, dydt)
		evals++
	}
	res, err := Solve(g, oracleHist, delays, 0, t1, h, Options{Stride: stride})
	if err != nil {
		t.Fatal(err)
	}
	tRef, yRef := ref.Last()
	tEnd, y := res.Last()
	if tEnd != tRef || math.Float64bits(y[0]) != math.Float64bits(yRef[0]) || math.Float64bits(y[1]) != math.Float64bits(yRef[1]) {
		t.Fatalf("h=%v delays=%v: checking solve ended at t=%v %v, reference at t=%v %v", h, delays, tEnd, y, tRef, yRef)
	}
	return n
}

// TestLagStepIndexedLookup holds the step-indexed lookup to the
// unpruned oracle where its guess from times[0] and h is most likely
// to be off: a short last step, query times landing exactly on stored
// times (a dyadic step and integer-multiple delays, so the >= tie
// decides), and the first evaluation after each prune.
func TestLagStepIndexedLookup(t *testing.T) {
	const cycles = 12
	for _, tc := range []struct {
		name   string
		h      float64
		delays []float64
		steps  float64
	}{
		{"short last step", 1e-3, []float64{1e-3, 3.7e-3, 1}, cycles*pruneEvery + 0.37},
		{"exact multiples", 1.0 / 1024, []float64{1.0 / 1024, 4.0 / 1024, 300.0 / 1024}, cycles * pruneEvery},
		{"exact multiples, short last step", 1.0 / 1024, []float64{2.0 / 1024, 1}, cycles*pruneEvery + 0.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if n := solveAgainstOracle(t, tc.delays, tc.steps*tc.h, tc.h, 7); n.afterPrune == 0 {
				t.Fatalf("no Lag read after a prune (%d checked)", n.checked)
			}
		})
	}
}

// TestUndeclaredDelayAfterPrune: a delay beyond every declared one,
// asked only once the window has been pruned, still makes Solve fail
// with its "beyond every declared delay" error, whether the delayed
// time falls inside the window, before it or is NaN.
func TestUndeclaredDelayAfterPrune(t *testing.T) {
	const h = 1e-3
	hist := func(float64) []float64 { return []float64{1} }
	for _, asked := range []float64{0.15, 3, 1e9, math.Inf(1), math.NaN()} {
		f := func(tt float64, y []float64, lag Lagger, dydt []float64) {
			dydt[0] = -lag.Lag(0, 0.1)
			if tt > 2 {
				dydt[0] += lag.Lag(0, asked)
			}
		}
		res, err := Solve(f, hist, []float64{0.1}, 0, 4, h, Options{})
		if err == nil {
			t.Fatalf("undeclared delay %v accepted (%d samples)", asked, res.Len())
		}
		if !strings.Contains(err.Error(), "beyond every declared delay") {
			t.Fatalf("delay %v: error %q", asked, err)
		}
	}
}

// FuzzLag holds every Lag value to the unpruned oracle over drawn
// steps (dyadic ones, so ties are exact, and decimal ones), one to
// three delays (zero, integer or fractional multiples of h), horizons
// of 200 to 3000 steps with or without a short last step, and strides.
func FuzzLag(f *testing.F) {
	f.Fuzz(func(t *testing.T, hRaw uint16, nDelays uint8, d1, d2, d3, steps, tail uint16, stride uint8) {
		h := (1 + float64((hRaw>>1)%1000)) * 1e-4
		if hRaw&1 == 1 {
			h = math.Ldexp(1, -3-int((hRaw>>1)%10))
		}
		delays := make([]float64, 0, 3)
		for _, r := range []uint16{d1, d2, d3}[:1+nDelays%3] {
			switch m := float64(r >> 2); r % 4 {
			case 0:
				delays = append(delays, 0)
			case 1:
				delays = append(delays, (1+math.Mod(m, 600))*h)
			default:
				delays = append(delays, h*(1+m/37))
			}
		}
		t1 := (200 + float64(steps%2801) + float64(tail%1024)/1024) * h
		solveAgainstOracle(t, delays, t1, h, 1+int(stride))
	})
}
