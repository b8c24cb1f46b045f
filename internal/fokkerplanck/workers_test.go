package fokkerplanck

import (
	"testing"

	"fpcc/internal/control"
)

func workersTestConfig(workers int) Config {
	return Config{
		Law:   control.AIMD{C0: 2, C1: 0.8, QHat: 20},
		Mu:    5,
		Sigma: 1.5,
		QMax:  60, NQ: 150,
		VMin: -12, VMax: 12, NV: 120,
		Workers: workers,
	}
}

// runWorkers advances a fresh solver and returns the raw density
// field plus the audit quantities.
func runWorkers(t *testing.T, cfg Config, horizon float64) ([]float64, float64, float64) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetGaussian(5, 3, 1.5, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(horizon, 0); err != nil {
		t.Fatal(err)
	}
	return s.Density(), s.ClippedMass(), s.OutflowMass()
}

// TestSolverBitIdenticalAcrossWorkers is the tentpole's determinism
// bar for the PDE hot path: the raw density field — not just derived
// moments — must be bit-identical for any Workers setting, for both
// advection schemes and with the q-diffusion active.
func TestSolverBitIdenticalAcrossWorkers(t *testing.T) {
	for _, secondOrder := range []bool{false, true} {
		base := workersTestConfig(1)
		base.SecondOrder = secondOrder
		f1, c1, o1 := runWorkers(t, base, 3)
		for _, workers := range []int{2, 3, 8} {
			cfg := base
			cfg.Workers = workers
			fw, cw, ow := runWorkers(t, cfg, 3)
			if cw != c1 || ow != o1 {
				t.Fatalf("secondOrder=%v workers=%d: audit diverged: clip %v vs %v, outflow %v vs %v",
					secondOrder, workers, cw, c1, ow, o1)
			}
			for i := range f1 {
				if fw[i] != f1[i] {
					t.Fatalf("secondOrder=%v workers=%d: density[%d] = %v, workers=1 got %v",
						secondOrder, workers, i, fw[i], f1[i])
				}
			}
		}
	}
}

// TestSolverBitIdenticalAcrossWorkersDelayed covers the delayed
// closure: the shared per-step drift row and the history pruning must
// not introduce worker dependence.
func TestSolverBitIdenticalAcrossWorkersDelayed(t *testing.T) {
	base := workersTestConfig(1)
	base.DelayTau = 0.8
	f1, _, _ := runWorkers(t, base, 4)
	base.Workers = 8
	f8, _, _ := runWorkers(t, base, 4)
	for i := range f1 {
		if f1[i] != f8[i] {
			t.Fatalf("delayed: density[%d] = %v at workers=8, %v at workers=1", i, f8[i], f1[i])
		}
	}
}

// TestDelayHistoryPruningBounded is the satellite regression test for
// the O(n) history shift: a long-horizon delayed run must keep the
// live window near the lookback size instead of growing with the
// step count, and the backing array must compact rather than retain
// every record.
func TestDelayHistoryPruningBounded(t *testing.T) {
	cfg := workersTestConfig(1)
	cfg.NQ, cfg.NV = 60, 48 // keep the long run cheap
	cfg.DelayTau = 0.5
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetGaussian(5, 3, 1.5, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(120, 0); err != nil {
		t.Fatal(err)
	}
	steps := int(120/s.MaxStableDt()) + 1
	live := len(s.histT) - s.histStart
	// The live window covers [t−τ, t]: about τ/dt records plus the
	// clamp record. Anything near the total step count means pruning
	// regressed.
	window := int(cfg.DelayTau/s.MaxStableDt()) + 8
	if live > 2*window {
		t.Fatalf("live history %d records for a %d-record lookback window (%d steps total)", live, window, steps)
	}
	if len(s.histT) > 4*window+128 {
		t.Fatalf("backing array holds %d records after %d steps: compaction regressed", len(s.histT), steps)
	}
}

// TestDelayedMeanQMatchesBruteForce pins the pruned interpolation
// against a brute-force history kept on the side.
func TestDelayedMeanQMatchesBruteForce(t *testing.T) {
	cfg := workersTestConfig(1)
	cfg.NQ, cfg.NV = 60, 48
	cfg.DelayTau = 0.7
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetGaussian(5, 3, 1.5, 1); err != nil {
		t.Fatal(err)
	}
	var allT, allQ []float64
	allT = append(allT, s.histT...)
	allQ = append(allQ, s.histQ...)
	interp := func(target float64) float64 {
		if target <= allT[0] {
			return allQ[0]
		}
		if target >= allT[len(allT)-1] {
			return allQ[len(allQ)-1]
		}
		k := 0
		for allT[k+1] < target {
			k++
		}
		if allT[k+1] == allT[k] {
			return allQ[k+1]
		}
		frac := (target - allT[k]) / (allT[k+1] - allT[k])
		return allQ[k] + frac*(allQ[k+1]-allQ[k])
	}
	dt := s.MaxStableDt()
	for i := 0; i < 400; i++ {
		if err := s.Step(dt); err != nil {
			t.Fatal(err)
		}
		allT = append(allT, s.t)
		allQ = append(allQ, s.meanQ())
		got := s.delayedMeanQ()
		want := interp(s.t - cfg.DelayTau)
		if diff := got - want; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("step %d: delayedMeanQ = %v, brute force %v", i, got, want)
		}
	}
}

// TestAppendVariantsAllocationFree pins the satellite contract: the
// Append forms must not allocate when handed a big-enough buffer,
// and must agree exactly with the allocating forms.
func TestAppendVariantsAllocationFree(t *testing.T) {
	cfg := workersTestConfig(1)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetGaussian(5, 3, 1.5, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(0.5, 0); err != nil {
		t.Fatal(err)
	}
	dBuf := make([]float64, 0, cfg.NQ*cfg.NV)
	qBuf := make([]float64, 0, cfg.NQ)
	vBuf := make([]float64, 0, cfg.NV)
	allocs := testing.AllocsPerRun(100, func() {
		dBuf = s.AppendDensity(dBuf[:0])
		qBuf = s.AppendMarginalQ(qBuf[:0])
		vBuf = s.AppendMarginalV(vBuf[:0])
	})
	if allocs != 0 {
		t.Fatalf("Append variants allocated %v times per run, want 0", allocs)
	}
	for i, v := range s.Density() {
		if dBuf[i] != v {
			t.Fatalf("AppendDensity[%d] = %v, Density = %v", i, dBuf[i], v)
		}
	}
	for i, v := range s.MarginalQ() {
		if qBuf[i] != v {
			t.Fatalf("AppendMarginalQ[%d] = %v, MarginalQ = %v", i, qBuf[i], v)
		}
	}
	for i, v := range s.MarginalV() {
		if vBuf[i] != v {
			t.Fatalf("AppendMarginalV[%d] = %v, MarginalV = %v", i, vBuf[i], v)
		}
	}
}
