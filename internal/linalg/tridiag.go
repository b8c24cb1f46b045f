// Package linalg provides the small dense linear-algebra kernels used
// by the Fokker-Planck solver: a tridiagonal (Thomas) solver for the
// Crank-Nicolson diffusion step and a handful of vector helpers.
//
// Everything operates on plain []float64 with explicit workspace
// reuse, so the per-step hot path of the PDE solver allocates nothing.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when Gaussian elimination encounters a pivot
// too close to zero for a stable solve.
var ErrSingular = errors.New("linalg: matrix is singular or badly conditioned")

// Tridiag is a tridiagonal system solver with preallocated workspace.
// The system is
//
//	b[0]·x[0] + c[0]·x[1]                      = d[0]
//	a[i]·x[i-1] + b[i]·x[i] + c[i]·x[i+1]      = d[i]   (0 < i < n-1)
//	a[n-1]·x[n-2] + b[n-1]·x[n-1]              = d[n-1]
//
// A zero Tridiag is ready to use; workspace grows on demand and is
// reused across calls, so repeated solves of same-sized systems do not
// allocate. Not safe for concurrent use; create one per goroutine.
type Tridiag struct {
	cp, dp []float64 // forward-sweep workspace
}

// Solve solves the tridiagonal system into x using the Thomas
// algorithm. a, b, c, d, x must all have length n >= 1 (a[0] and
// c[n-1] are ignored). d and x may alias. It returns ErrSingular when
// a pivot vanishes.
func (t *Tridiag) Solve(a, b, c, d, x []float64) error {
	n := len(b)
	if n == 0 {
		return errors.New("linalg: empty system")
	}
	if len(a) != n || len(c) != n || len(d) != n || len(x) != n {
		return fmt.Errorf("linalg: inconsistent lengths a=%d b=%d c=%d d=%d x=%d",
			len(a), len(b), len(c), len(d), len(x))
	}
	if cap(t.cp) < n {
		t.cp = make([]float64, n)
		t.dp = make([]float64, n)
	}
	cp, dp := t.cp[:n], t.dp[:n]

	const tiny = 1e-300
	piv := b[0]
	if math.Abs(piv) < tiny {
		return ErrSingular
	}
	cp[0] = c[0] / piv
	dp[0] = d[0] / piv
	for i := 1; i < n; i++ {
		den := b[i] - a[i]*cp[i-1]
		if math.Abs(den) < tiny {
			return ErrSingular
		}
		cp[i] = c[i] / den
		dp[i] = (d[i] - a[i]*dp[i-1]) / den
	}
	x[n-1] = dp[n-1]
	for i := n - 2; i >= 0; i-- {
		x[i] = dp[i] - cp[i]*x[i+1]
	}
	return nil
}
