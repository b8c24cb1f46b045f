package fluid

import (
	"math"
	"testing"

	"fpcc/internal/control"
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

// decodeModel builds an AIMD model and a step. Layout: Mu, Q0 and the
// step h (three float64s), one byte for the source count (1–3), then
// per source Delay, Lambda0 and the AIMD C0, C1 and q̂ (five float64s).
func decodeModel(data []byte) (Model, float64) {
	in := fuzzInput(data)
	m := Model{Mu: in.float(), Q0: in.float()}
	h := in.float()
	m.Sources = make([]Source, 1+int(in.byte()%3))
	for i := range m.Sources {
		m.Sources[i] = Source{Delay: in.float(), Lambda0: in.float()}
		m.Sources[i].Law = control.AIMD{C0: in.float(), C1: in.float(), QHat: in.float()}
	}
	return m, h
}

// fuzzSteps bounds each accepted input's run: the horizon is
// fuzzSteps steps.
const fuzzSteps = 16

// FuzzModel holds the fluid model to its contract: a model Validate
// rejects makes Solve return an error, one it accepts either solves to
// finite states at every recorded time or returns an error, and
// nothing panics.
func FuzzModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, h := decodeModel(data)
		sol, err := m.Solve(fuzzSteps*h, h, 0)
		if verr := m.Validate(); verr != nil {
			if err == nil {
				t.Fatalf("Solve accepted a model Validate rejects (%v)", verr)
			}
			return
		}
		if err != nil {
			return
		}
		for k := range sol.Len() {
			tk, y := sol.At(k)
			for _, v := range append([]float64{tk}, y...) {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("sample %d of %d is not finite: t=%v %v", k, sol.Len(), tk, y)
				}
			}
		}
	})
}
