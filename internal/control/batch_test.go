package control

import (
	"math"
	"testing"

	"fpcc/internal/rng"
)

// TestDriftBatchMatchesDrift is the contract the particle engines'
// determinism rests on: the batch path must be bit-identical to
// per-element Drift calls for every implementing law. It compares
// bit patterns, so a −0 for +0 or a differently signed NaN fails, and
// it feeds the select the inputs a branch-free rewrite could get
// wrong: q exactly at q̂, NaN on either side, signed zeros and
// infinities, and a law whose decrease term is zero.
func TestDriftBatchMatchesDrift(t *testing.T) {
	laws := []Law{
		AIMD{C0: 2, C1: 0.8, QHat: 20},
		AIMD{C0: 0.1, C1: 3.2, QHat: 0},
		AIMD{C0: 2, C1: 0, QHat: 20},
		AIAD{C0: 2, C1: 1.5, QHat: 20},
	}
	r := rng.New(17)
	const n = 4096
	q := make([]float64, n)
	lam := make([]float64, n)
	dst := make([]float64, n)
	for i := range q {
		q[i] = 40 * r.Float64()
		lam[i] = 12 * r.Float64()
	}
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	// Straddle the branch point exactly and cover the special values
	// on both sides of it and in both arguments.
	special := [][2]float64{
		{20, 5}, {20.0000001, 5}, {0, 5}, {negZero, 5},
		{nan, 5}, {nan, nan}, {10, nan}, {30, nan},
		{10, 0}, {30, 0}, {10, negZero}, {30, negZero},
		{30, inf}, {30, -inf}, {10, inf}, {inf, 5}, {-inf, 5},
		{inf, inf}, {-inf, -inf}, {30, -3}, {nan, negZero},
	}
	for i, s := range special {
		q[i], lam[i] = s[0], s[1]
	}
	for _, law := range laws {
		b, ok := law.(DriftBatcher)
		if !ok {
			t.Fatalf("%s does not implement DriftBatcher", law.Name())
		}
		b.DriftBatch(q, lam, dst)
		for i := range q {
			want := law.Drift(q[i], lam[i])
			if math.Float64bits(dst[i]) != math.Float64bits(want) {
				t.Fatalf("%s%+v: DriftBatch(%v, %v) = %v (%#x), Drift = %v (%#x)",
					law.Name(), law, q[i], lam[i], dst[i], math.Float64bits(dst[i]), want, math.Float64bits(want))
			}
		}
	}
}

// TestDriftsFallback covers the generic path for a law without a
// batch implementation.
func TestDriftsFallback(t *testing.T) {
	law := Custom{DriftFunc: func(q, lambda float64) float64 { return q - lambda }, LawName: "diff"}
	q := []float64{1, 2, 3}
	lam := []float64{0.5, 0.5, 0.5}
	dst := make([]float64, 3)
	Drifts(law, q, lam, dst)
	for i := range q {
		if want := q[i] - lam[i]; dst[i] != want {
			t.Fatalf("Drifts[%d] = %v, want %v", i, dst[i], want)
		}
	}
}
