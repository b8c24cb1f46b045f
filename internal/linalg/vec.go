package linalg

import (
	"fmt"
	"math"
)

// Dot returns the inner product of x and y. It panics on length
// mismatch.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(x), len(y)))
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// AXPY computes y += alpha*x in place. It panics on length mismatch.
func AXPY(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: AXPY length mismatch %d vs %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Scale multiplies every element of x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Fill sets every element of x to v.
func Fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}

// L1Dist returns the sum of absolute differences between x and y.
// It panics on length mismatch.
func L1Dist(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: L1Dist length mismatch %d vs %d", len(x), len(y)))
	}
	var s float64
	for i, v := range x {
		s += math.Abs(v - y[i])
	}
	return s
}

// Minmod returns the minmod slope limiter of two one-sided
// differences: 0 on sign disagreement, else the smaller magnitude.
// It is the TVD limiter shared by the MUSCL advection sweeps of
// internal/fokkerplanck and internal/meanfield.
func Minmod(a, b float64) float64 {
	if a > 0 && b > 0 {
		if a < b {
			return a
		}
		return b
	}
	if a < 0 && b < 0 {
		if a > b {
			return a
		}
		return b
	}
	return 0
}

// ClampNonNegative zeroes every negative element of x and returns the
// total (negative) mass removed. Upwind advection of a density can
// produce tiny negative undershoots; the Fokker-Planck solver clips
// them and accounts for the clipped mass in its audit.
func ClampNonNegative(x []float64) float64 {
	var removed float64
	for i, v := range x {
		if v < 0 {
			removed += v
			x[i] = 0
		}
	}
	return removed
}
