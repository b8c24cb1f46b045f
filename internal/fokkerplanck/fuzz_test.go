package fokkerplanck

import (
	"math"
	"testing"

	"fpcc/internal/control"
	"fpcc/internal/obs"
)

// fuzzInput decodes a fuzz input field by field; past its end every
// field reads as zero.
type fuzzInput []byte

func (in *fuzzInput) byte() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

// float reads 8 bytes, big-endian, as the bits of a float64, so every
// value (NaN, ±Inf, subnormals) is reachable.
func (in *fuzzInput) float() float64 {
	var u uint64
	for range 8 {
		u = u<<8 | uint64(in.byte())
	}
	return math.Float64frombits(u)
}

// decodeConfig builds an AIMD problem. Layout: Mu, Sigma, QMax, VMin,
// VMax, then the AIMD C0, C1 and q̂ (eight float64s), then
// one byte each for NQ and NV (4–64 cells) and a flag byte whose bit 0
// selects SecondOrder.
func decodeConfig(data []byte) Config {
	in := fuzzInput(data)
	cfg := Config{
		Mu: in.float(), Sigma: in.float(),
		QMax: in.float(), VMin: in.float(), VMax: in.float(),
	}
	cfg.Law = control.AIMD{C0: in.float(), C1: in.float(), QHat: in.float()}
	cfg.NQ = 4 + int(in.byte()%61)
	cfg.NV = 4 + int(in.byte()%61)
	cfg.SecondOrder = in.byte()&1 != 0
	return cfg
}

// FuzzConfig holds the solver to its config contract: a config
// Validate rejects makes New return an error (never panic), and one it
// accepts either fails with an error somewhere along the way or
// reaches the horizon with finite moments. The horizon is 0.05 s or
// 32 stable steps, whichever is shorter, but at least 10⁻¹² s, so
// every accepted input runs at most about a thousand steps and a step
// below the time resolution still has a horizon to miss. The
// recorder's invariant checks are on throughout.
func FuzzConfig(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := decodeConfig(data)
		if err := cfg.Validate(); err != nil {
			if _, nerr := New(cfg); nerr == nil {
				t.Fatalf("New accepted a config Validate rejects (%v)", err)
			}
			return
		}
		cfg.Obs = (&obs.Config{Invariants: true}).Recorder("fp")
		s, err := New(cfg)
		if err != nil {
			return
		}
		q0, v0 := cfg.QMax/4, cfg.VMin/2+cfg.VMax/2
		if s.SetGaussian(q0, v0, cfg.QMax/8, cfg.VMax/8-cfg.VMin/8) != nil {
			return
		}
		horizon := math.Min(0.05, math.Max(32*s.MaxStableDt(), 1e-12))
		if s.Advance(horizon, 0) != nil {
			return
		}
		if !(math.Abs(s.Time()-horizon) <= 1e-15*(1+horizon)) {
			t.Fatalf("Advance(%v) returned nil at t=%v", horizon, s.Time())
		}
		m := s.Moments()
		for _, v := range []float64{m.Mass, m.MeanQ, m.VarQ, m.MeanV, m.VarV, m.Cov} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite moments at t=%v: %+v", s.Time(), m)
			}
		}
	})
}
