// Package grid provides the uniform one- and two-dimensional meshes
// used by the finite-difference Fokker-Planck solver, together with
// CFL (Courant-Friedrichs-Lewy) bookkeeping for explicit advection
// steps.
//
// A Uniform1D covers [Min, Max] with N cell centers; a Uniform2D is
// the tensor product of two Uniform1D axes with values stored
// row-major (the first axis is the slow index). Cell-centered storage
// is the natural choice for the conservative upwind fluxes used in
// internal/fokkerplanck: fluxes live on cell edges, densities on cell
// centers, and total mass is Sum(f)·dx·dy.
package grid

import (
	"fmt"
	"math"
)

// Uniform1D is a uniform cell-centered mesh over [Min, Max] with N
// cells. Cell i has center Min + (i+1/2)·Dx and width Dx.
type Uniform1D struct {
	Min, Max float64
	N        int
	Dx       float64
}

// NewUniform1D builds a 1-D mesh. It returns an error if n < 2, if the
// bounds are not finite, or if max <= min.
func NewUniform1D(min, max float64, n int) (Uniform1D, error) {
	switch {
	case n < 2:
		return Uniform1D{}, fmt.Errorf("grid: need at least 2 cells, got %d", n)
	case math.IsNaN(min) || math.IsInf(min, 0) || math.IsNaN(max) || math.IsInf(max, 0):
		return Uniform1D{}, fmt.Errorf("grid: non-finite bounds [%v, %v]", min, max)
	case max <= min:
		return Uniform1D{}, fmt.Errorf("grid: empty interval [%v, %v]", min, max)
	}
	return Uniform1D{Min: min, Max: max, N: n, Dx: (max - min) / float64(n)}, nil
}

// Center returns the coordinate of the center of cell i.
func (g Uniform1D) Center(i int) float64 {
	return g.Min + (float64(i)+0.5)*g.Dx
}

// Edge returns the coordinate of edge i (edge i is the left edge of
// cell i; edge N is the right boundary).
func (g Uniform1D) Edge(i int) float64 {
	return g.Min + float64(i)*g.Dx
}

// Centers returns a freshly allocated slice of all cell centers.
func (g Uniform1D) Centers() []float64 {
	c := make([]float64, g.N)
	for i := range c {
		c[i] = g.Center(i)
	}
	return c
}

// CellOf returns the index of the cell containing x, clamped to
// [0, N-1]. Points outside the mesh map to the nearest boundary cell.
func (g Uniform1D) CellOf(x float64) int {
	i := int(math.Floor((x - g.Min) / g.Dx))
	if i < 0 {
		return 0
	}
	if i >= g.N {
		return g.N - 1
	}
	return i
}

// Uniform2D is the tensor product of an X axis and a Y axis. Values
// associated with the mesh are stored row-major in a flat slice of
// length X.N*Y.N: index = ix*Y.N + iy.
type Uniform2D struct {
	X, Y Uniform1D
}

// NewUniform2D builds a 2-D mesh from two validated axes.
func NewUniform2D(x, y Uniform1D) Uniform2D { return Uniform2D{X: x, Y: y} }

// Len returns the number of cells, i.e. the length of a flat field.
func (g Uniform2D) Len() int { return g.X.N * g.Y.N }

// CellArea returns the area of one cell, Dx*Dy.
func (g Uniform2D) CellArea() float64 { return g.X.Dx * g.Y.Dx }

// NewField returns a zeroed flat field sized for the mesh.
func (g Uniform2D) NewField() []float64 { return make([]float64, g.Len()) }

// Integrate returns the integral of field f over the mesh, i.e.
// Sum(f)·Dx·Dy. It panics if len(f) does not match the mesh.
func (g Uniform2D) Integrate(f []float64) float64 {
	if len(f) != g.Len() {
		panic(fmt.Sprintf("grid: field length %d does not match mesh %dx%d", len(f), g.X.N, g.Y.N))
	}
	var sum float64
	for _, v := range f {
		sum += v
	}
	return sum * g.CellArea()
}

// CFL computes the Courant number for an explicit advection step of
// size dt with maximum speeds speedX and speedY along the two axes.
// A scheme using simple upwind differencing is stable when the
// returned value is <= 1.
func (g Uniform2D) CFL(dt, speedX, speedY float64) float64 {
	return dt * (math.Abs(speedX)/g.X.Dx + math.Abs(speedY)/g.Y.Dx)
}

// MaxStableDt returns the largest dt with CFL number <= target for
// the given maximum speeds. It panics if target <= 0. A zero speed on
// both axes returns +Inf (no advection constraint).
func (g Uniform2D) MaxStableDt(target, speedX, speedY float64) float64 {
	if target <= 0 {
		panic(fmt.Sprintf("grid: non-positive CFL target %v", target))
	}
	denom := math.Abs(speedX)/g.X.Dx + math.Abs(speedY)/g.Y.Dx
	if denom == 0 {
		return math.Inf(1)
	}
	return target / denom
}
