package sde

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

// decodeConfig builds an AIMD ensemble. Layout: Mu, Sigma, Dt, Q0,
// Lambda0, InitStdQ, InitStdL, then the AIMD C0, C1 and q̂ (ten
// float64s), then one byte each for Particles (1–256) and Workers
// (1–3).
func decodeConfig(data []byte) Config {
	in := fuzzInput(data)
	cfg := Config{
		Mu: in.float(), Sigma: in.float(), Dt: in.float(),
		Q0: in.float(), Lambda0: in.float(),
		InitStdQ: in.float(), InitStdL: in.float(),
		Seed: 1,
	}
	cfg.Law = control.AIMD{C0: in.float(), C1: in.float(), QHat: in.float()}
	cfg.Particles = 1 + int(in.byte())
	cfg.Workers = 1 + int(in.byte()%3)
	return cfg
}

// fuzzSteps bounds each accepted input's run.
const fuzzSteps = 16

// FuzzConfig holds the ensemble to its config contract: a config
// Validate rejects makes New return an error (never panic), and one it
// accepts runs fuzzSteps steps under invariant checks, after which
// either a violation is latched or every moment is finite.
func FuzzConfig(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := decodeConfig(data)
		if err := cfg.Validate(); err != nil {
			if _, nerr := New(cfg); nerr == nil {
				t.Fatalf("New accepted a config Validate rejects (%v)", err)
			}
			return
		}
		cfg.Obs = (&obs.Config{Invariants: true}).Recorder("sde")
		e, err := New(cfg)
		if err != nil {
			t.Fatalf("New rejected a config Validate accepts: %v", err)
		}
		for range fuzzSteps {
			e.Step()
		}
		if e.InvariantViolation() != nil {
			return
		}
		m := e.Moments()
		for _, v := range []float64{m.MeanQ, m.VarQ, m.MeanLam, m.VarLam, m.Cov} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite moments at t=%v with no violation: %+v", e.Time(), m)
			}
		}
	})
}
