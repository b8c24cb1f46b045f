package linalg

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
