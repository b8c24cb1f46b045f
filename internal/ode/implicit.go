package ode

import (
	"fmt"
	"math"

	"fpcc/internal/linalg"
)

// This file adds A-stable implicit steppers — the implicit trapezoid
// rule and BDF2 — for stiff problems. Stiffness arises in this
// repository when the exponential-decrease branch of a control law is
// fast relative to the queue dynamics (large C1·λ), where explicit
// RK4 needs steps far below the accuracy requirement just to stay
// bounded. Both steppers solve their stage equations with a damped
// Newton iteration on a finite-difference Jacobian.

// newtonSolve solves y − beta·h·f(t, y) = rhs for y, starting from
// the predictor already stored in y. dim-sized scratch slices are
// provided by the caller to keep steppers allocation-free per step.
func newtonSolve(f System, t, h, beta float64, y, rhs, fy, ypert, fpert []float64, jac *linalg.Dense) error {
	n := len(y)
	const maxNewton = 25
	for iter := 0; iter < maxNewton; iter++ {
		f(t, y, fy)
		// Residual r = y − beta·h·f − rhs; solve J·δ = −r.
		var rnorm float64
		for i := 0; i < n; i++ {
			r := y[i] - beta*h*fy[i] - rhs[i]
			fpert[i] = -r // reuse fpert as the negated residual/RHS
			if a := math.Abs(r); a > rnorm {
				rnorm = a
			}
		}
		scale := 1.0
		for i := 0; i < n; i++ {
			if a := math.Abs(y[i]); a > scale {
				scale = a
			}
		}
		if rnorm <= 1e-12*scale {
			return nil
		}
		// Finite-difference Jacobian of the residual:
		// J = I − beta·h·∂f/∂y.
		copy(ypert, y)
		rhsVec := make([]float64, n)
		copy(rhsVec, fpert)
		for j := 0; j < n; j++ {
			dy := 1e-7 * (1 + math.Abs(y[j]))
			ypert[j] = y[j] + dy
			f(t, ypert, fpert)
			for i := 0; i < n; i++ {
				jac.Set(i, j, -beta*h*(fpert[i]-fy[i])/dy)
			}
			jac.Set(j, j, jac.At(j, j)+1)
			ypert[j] = y[j]
		}
		if err := linalg.SolveDense(jac, rhsVec); err != nil {
			return fmt.Errorf("ode: Newton Jacobian solve failed: %w", err)
		}
		var step float64
		for i := 0; i < n; i++ {
			y[i] += rhsVec[i]
			if a := math.Abs(rhsVec[i]); a > step {
				step = a
			}
		}
		if step <= 1e-13*scale {
			return nil
		}
	}
	return fmt.Errorf("ode: Newton iteration did not converge in %d steps (h=%v)", maxNewton, h)
}

// ImplicitTrapezoid is the A-stable one-step method
// y⁺ = y + h/2·(f(t,y) + f(t+h,y⁺)), second order. Step panics on
// Newton failure to satisfy the Stepper interface; use TrySolve for
// error-returning integration.
type ImplicitTrapezoid struct {
	fy, f0, rhs, ypert, fpert []float64
	jac                       *linalg.Dense
	err                       error
}

// NewImplicitTrapezoid builds a stepper for the given state dimension.
func NewImplicitTrapezoid(dim int) (*ImplicitTrapezoid, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("ode: dimension must be positive, got %d", dim)
	}
	jac, err := linalg.NewDense(dim)
	if err != nil {
		return nil, err
	}
	return &ImplicitTrapezoid{
		fy: make([]float64, dim), f0: make([]float64, dim),
		rhs: make([]float64, dim), ypert: make([]float64, dim),
		fpert: make([]float64, dim), jac: jac,
	}, nil
}

// Err returns the first Newton failure encountered by Step, if any.
func (s *ImplicitTrapezoid) Err() error { return s.err }

// Step implements Stepper. A Newton failure is latched into Err and
// the state is advanced by an explicit Euler fallback step so the
// caller can detect the degradation instead of silently continuing.
func (s *ImplicitTrapezoid) Step(f System, t, h float64, y []float64) {
	f(t, y, s.f0)
	// rhs = y + h/2·f(t, y); unknown solves y⁺ − h/2·f(t+h, y⁺) = rhs.
	for i := range y {
		s.rhs[i] = y[i] + h/2*s.f0[i]
	}
	// Predictor: explicit Euler.
	for i := range y {
		y[i] += h * s.f0[i]
	}
	if err := newtonSolve(f, t+h, h, 0.5, y, s.rhs, s.fy, s.ypert, s.fpert, s.jac); err != nil && s.err == nil {
		s.err = err
	}
}

// BDF2 is the two-step backward differentiation formula
// y⁺ = (4·yₙ − yₙ₋₁)/3 + (2h/3)·f(t+h, y⁺), L-stable, second order.
// The first step bootstraps with the implicit trapezoid rule. Fixed
// step size only: the history coefficients assume uniform h.
type BDF2 struct {
	trap   *ImplicitTrapezoid
	prev   []float64 // yₙ₋₁
	hasTwo bool
	lastH  float64
	rhs    []float64
	err    error
}

// NewBDF2 builds a BDF2 stepper for the given dimension.
func NewBDF2(dim int) (*BDF2, error) {
	trap, err := NewImplicitTrapezoid(dim)
	if err != nil {
		return nil, err
	}
	return &BDF2{trap: trap, prev: make([]float64, dim), rhs: make([]float64, dim)}, nil
}

// Err returns the first Newton failure, if any.
func (s *BDF2) Err() error {
	if s.err != nil {
		return s.err
	}
	return s.trap.Err()
}

// Step implements Stepper.
func (s *BDF2) Step(f System, t, h float64, y []float64) {
	if !s.hasTwo {
		copy(s.prev, y)
		s.trap.Step(f, t, h, y)
		s.hasTwo = true
		s.lastH = h
		return
	}
	if math.Abs(h-s.lastH) > 1e-12*math.Abs(h) && s.err == nil {
		s.err = fmt.Errorf("ode: BDF2 requires a fixed step, got %v after %v", h, s.lastH)
	}
	// rhs = (4yₙ − yₙ₋₁)/3; unknown solves y⁺ − (2h/3)f = rhs.
	for i := range y {
		s.rhs[i] = (4*y[i] - s.prev[i]) / 3
	}
	copy(s.prev, y)
	// Predictor: keep yₙ (cheap and robust for stiff decays).
	if err := newtonSolve(f, t+h, h, 2.0/3.0, y, s.rhs, s.trap.fy, s.trap.ypert, s.trap.fpert, s.trap.jac); err != nil && s.err == nil {
		s.err = err
	}
}
