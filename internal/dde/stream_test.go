package dde

import (
	"math"
	"runtime"
	"testing"
)

// delayedOscillator is a two-state delayed system whose state stays
// O(1): dy₀/dt = y₁(t−τ), dy₁/dt = −y₀(t).
func delayedOscillator(tau float64) System {
	return func(tt float64, y []float64, lag Lagger, dydt []float64) {
		dydt[0] = lag.Lag(1, tau)
		dydt[1] = -y[0]
	}
}

// streamed collects what Stream visits, copying each state.
type streamed struct {
	times, states []float64
}

func (s *streamed) visit(t float64, y []float64) {
	s.times = append(s.times, t)
	s.states = append(s.states, y...)
}

// TestStreamMatchesSolve: Stream visits exactly the samples Solve
// records, bit for bit, and fails with Solve's error.
func TestStreamMatchesSolve(t *testing.T) {
	hist := func(tt float64) []float64 { return []float64{1 + 0.5*math.Sin(3*tt), 0.2 * tt} }
	const tau = 0.05
	for _, tc := range []struct {
		name   string
		t1, h  float64
		stride int
	}{
		{"stride 1", 2, 1e-3, 1},
		{"stride 7", 2, 1e-3, 7},
		{"stride 20", 2, 1e-3, 20},
		{"stride 7, short last step", 2.0004, 1e-3, 7},
		{"stride 20, short last step", 1.2345, 1e-3, 20},
		{"stride 0", 0.5, 1e-3, 0},
		// Ten steps of 0.01 sum to just under 0.1, so the solve ends on
		// step 10, off the stride, without a step landing on t1.
		{"stride 7, rounding ends the run", 0.1, 0.01, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := delayedOscillator(tau)
			opts := Options{Stride: tc.stride}
			res, err := Solve(f, hist, []float64{tau}, 0, tc.t1, tc.h, opts)
			if err != nil {
				t.Fatal(err)
			}
			var got streamed
			if err := Stream(got.visit, f, hist, []float64{tau}, 0, tc.t1, tc.h, opts); err != nil {
				t.Fatal(err)
			}
			if len(got.times) != res.Len() {
				t.Fatalf("Stream visited %d samples, Solve recorded %d", len(got.times), res.Len())
			}
			for k := range got.times {
				tk, y := res.At(k)
				if math.Float64bits(got.times[k]) != math.Float64bits(tk) {
					t.Fatalf("sample %d: Stream t=%v, Solve t=%v", k, got.times[k], tk)
				}
				for i, v := range y {
					if g := got.states[k*len(y)+i]; math.Float64bits(g) != math.Float64bits(v) {
						t.Fatalf("sample %d component %d: Stream %v, Solve %v", k, i, g, v)
					}
				}
			}
			if last := got.times[len(got.times)-1]; math.Abs(last-tc.t1) > 1e-12 {
				t.Fatalf("last visited time %v, want the horizon %v", last, tc.t1)
			}
		})
	}
	t.Run("undeclared delay", func(t *testing.T) {
		f := delayedOscillator(0.5)
		_, solveErr := Solve(f, hist, []float64{0.1}, 0, 2, 1e-3, Options{})
		var got streamed
		streamErr := Stream(got.visit, f, hist, []float64{0.1}, 0, 2, 1e-3, Options{})
		if solveErr == nil || streamErr == nil {
			t.Fatalf("undeclared delay accepted: Solve %v, Stream %v", solveErr, streamErr)
		}
		if solveErr.Error() != streamErr.Error() {
			t.Fatalf("Stream error %q, Solve error %q", streamErr, solveErr)
		}
		// The first step asks for the undeclared delay, so only the
		// initial sample was visited.
		if len(got.times) != 1 {
			t.Fatalf("Stream visited %d samples before failing, want 1", len(got.times))
		}
	})
}

// TestStreamBytesFlat: Stream's heap bytes, not only its allocation
// count, do not grow with the horizon: ten times the steps reuse the
// same history window and store no samples.
func TestStreamBytesFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("10⁶-step solve")
	}
	const h = 1e-3
	hist := func(float64) []float64 { return []float64{1, 0} }
	var sink float64
	visit := func(_ float64, y []float64) { sink += y[0] }
	// TotalAlloc is process-wide, so a runtime or test-framework
	// allocation during a solve counts too; the least of three solves
	// is Stream's own.
	bytes := func(steps float64) uint64 {
		least := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			err := Stream(visit, delayedOscillator(1000*h), hist, []float64{1000 * h}, 0, steps*h, h, Options{Stride: 20})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	// The first GC cycle starts the runtime's mark workers, whose
	// allocations would count; start them before measuring.
	runtime.GC()
	base, long := bytes(1e5), bytes(1e6)
	if long > base+1024 {
		t.Fatalf("10⁶-step Stream allocated %d B vs %d B at 10⁵ steps, want no growth", long, base)
	}
	if math.IsNaN(sink) {
		t.Fatal("non-finite state")
	}
}

func BenchmarkStreamDelayed(b *testing.B) {
	f := func(tt float64, y []float64, lag Lagger, dydt []float64) {
		dydt[0] = -lag.Lag(0, 1)
	}
	hist := func(tt float64) []float64 { return []float64{1} }
	var last float64
	visit := func(_ float64, y []float64) { last = y[0] }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Stream(visit, f, hist, []float64{1}, 0, 10, 1e-3, Options{Stride: 100}); err != nil {
			b.Fatal(err)
		}
	}
	if math.IsNaN(last) {
		b.Fatal("non-finite state")
	}
}
