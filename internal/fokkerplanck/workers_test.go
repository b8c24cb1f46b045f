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
	return s.f, s.ClippedMass(), s.OutflowMass()
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

// TestAppendVariantsAllocationFree pins the satellite contract: the
// Append form of the q-marginal must not allocate when handed a
// big-enough buffer, and must agree exactly with the allocating form.
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
	qBuf := make([]float64, 0, cfg.NQ)
	allocs := testing.AllocsPerRun(100, func() {
		qBuf = s.AppendMarginalQ(qBuf[:0])
	})
	if allocs != 0 {
		t.Fatalf("AppendMarginalQ allocated %v times per run, want 0", allocs)
	}
	for i, v := range s.MarginalQ() {
		if qBuf[i] != v {
			t.Fatalf("AppendMarginalQ[%d] = %v, MarginalQ = %v", i, qBuf[i], v)
		}
	}
}
