package netmf

import (
	"testing"
	"time"
)

// benchLot builds the 3-hop parking lot (4 classes over 3 nodes) at n
// sources per class — the benchmark scenario for the O(links +
// classes × bins) step-cost claim.
func benchLot(tb testing.TB, n int) *Engine {
	return benchLotWorkers(tb, n, 0)
}

// benchLotWorkers is benchLot with the engine's worker count set.
func benchLotWorkers(tb testing.TB, n, workers int) *Engine {
	cfg, err := ParkingLot(ParkingLotConfig{Hops: 3, N: n, Delay: 0.2})
	if err != nil {
		tb.Fatal(err)
	}
	cfg.SecondOrder, cfg.Workers = true, workers
	e, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// The headline scaling claim: stepping a parking lot with a million
// sources per class costs O(links + classes × bins), independent of
// N.
func BenchmarkStepMillionPerClass(b *testing.B) {
	e := benchLot(b, 1_000_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStepByN records the step cost across six decades of
// population size on the same topology — the flat trajectory behind
// TestStepCostFlatInN.
func BenchmarkStepByN(b *testing.B) {
	for _, n := range []int{1_000, 1_000_000, 1_000_000_000} {
		b.Run(byNLabel(n), func(b *testing.B) {
			e := benchLot(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func byNLabel(n int) string {
	switch {
	case n >= 1_000_000_000:
		return "N=1e9"
	case n >= 1_000_000:
		return "N=1e6"
	default:
		return "N=1e3"
	}
}

// TestStepCostFlatInN is the acceptance bound for the tentpole's
// scaling claim: the per-step cost at 10⁶ sources per class must stay
// within 2× of the cost at 10³ (the true ratio is ~1; the slack
// absorbs scheduler noise in CI).
func TestStepCostFlatInN(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	const steps = 300
	perStep := func(n int) time.Duration {
		e := benchLot(t, n)
		for i := 0; i < 20; i++ { // warm up caches and histories
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
		t0 := time.Now()
		for i := 0; i < steps; i++ {
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(t0) / steps
	}
	// Best of 3 per size: the minimum is the cleanest estimate of the
	// intrinsic cost under CI scheduling noise.
	best := func(n int) time.Duration {
		b := perStep(n)
		for i := 0; i < 2; i++ {
			if d := perStep(n); d < b {
				b = d
			}
		}
		return b
	}
	small := best(1_000)
	large := best(1_000_000)
	t.Logf("per-step: %v at N=10³ vs %v at N=10⁶ per class (ratio %.2fx)",
		small, large, float64(large)/float64(small))
	if large > 2*small {
		t.Errorf("step cost grew with N: %v at 10³ vs %v at 10⁶ per class", small, large)
	}
}

// TestStepAllocatesNothing pins the serial parking-lot step at zero
// allocations once the link-queue histories have reached their pruned
// size (8192 samples).
func TestStepAllocatesNothing(t *testing.T) {
	e := benchLotWorkers(t, 1_000_000, 1)
	for i := 0; i < 8300; i++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if a := testing.AllocsPerRun(50, func() { _ = e.Step() }); a != 0 {
		t.Errorf("parking-lot Step at workers=1: %v allocs per step, want 0", a)
	}
}
