package meanfield

import (
	"fmt"
	"math"
)

// Stepper is the stepping surface the Density and Particles backends
// share. Code that measures either backend — the convergence tests,
// the E28/E29 experiments, cmd/meanfield, examples/many-users —
// programs against it.
type Stepper interface {
	Step() error
	Time() float64
	Queue() float64
	NumClasses() int
	ClassMeanRate(k int) float64
}

var (
	_ Stepper = (*Density)(nil)
	_ Stepper = (*Particles)(nil)
)

// SteadyStats advances s to the horizon and returns the per-step
// averages of the queue and each class's mean rate over the
// measurement window [warm, horizon] — the steady-state observables
// every consumer of the engine reports. A step landing exactly on the
// warmup boundary is part of the window (it samples the state AT
// warm, the first post-transient instant). onStep, when non-nil, runs
// after every step (during warmup too), for callers that also sample
// traces or marginals along the way.
//
// The average weights every sampled step equally, which equals the
// time average of the end-of-step states only on the fixed-Dt lattice
// both built-in backends (Density, Particles) step on; a Stepper with
// a varying step size would need time-weighted accumulation instead.
func SteadyStats(s Stepper, warm, horizon float64, onStep func()) (meanQ float64, meanRates []float64, err error) {
	q, meanRates, err := steadyWindow(s, 1, func(int) float64 { return s.Queue() }, warm, horizon, onStep)
	if q == nil {
		return 0, nil, err
	}
	return q[0], meanRates, err
}

// NodeSteadyStats is SteadyStats on every queue of an Engine: it
// returns the window averages of each node's queue and each class's
// mean per-source rate, with the same window, sums and onStep
// contract.
func NodeSteadyStats(e *Engine, warm, horizon float64, onStep func()) (meanQ, meanRates []float64, err error) {
	return steadyWindow(e, e.NumNodes(), e.Queue, warm, horizon, onStep)
}

// steadyWindow is the one measurement loop behind SteadyStats and
// NodeSteadyStats: it steps s to the horizon and averages queue(j)
// for every j < nodes, and every class's mean rate, over the steps
// ending in [warm, horizon]. It allocates its two result slices and
// nothing per step.
func steadyWindow(s interface {
	Step() error
	Time() float64
	NumClasses() int
	ClassMeanRate(k int) float64
}, nodes int, queue func(j int) float64, warm, horizon float64, onStep func()) (meanQ, meanRates []float64, err error) {
	if !(horizon > warm) {
		return nil, nil, fmt.Errorf("meanfield: horizon %v must exceed warmup %v", horizon, warm)
	}
	meanQ = make([]float64, nodes)
	meanRates = make([]float64, s.NumClasses())
	var cnt int
	for s.Time() < horizon {
		if err := s.Step(); err != nil {
			return nil, nil, err
		}
		if onStep != nil {
			onStep()
		}
		if s.Time() >= warm {
			for j := range meanQ {
				meanQ[j] += queue(j)
			}
			for k := range meanRates {
				meanRates[k] += s.ClassMeanRate(k)
			}
			cnt++
		}
	}
	if cnt == 0 {
		for j := range meanQ {
			meanQ[j] = math.NaN()
		}
		return meanQ, meanRates, fmt.Errorf("meanfield: no steps fell in the window [%v, %v] with Dt so large", warm, horizon)
	}
	for j := range meanQ {
		meanQ[j] /= float64(cnt)
	}
	for k := range meanRates {
		meanRates[k] /= float64(cnt)
	}
	return meanQ, meanRates, nil
}
