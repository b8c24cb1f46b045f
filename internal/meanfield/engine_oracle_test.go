package meanfield

import (
	"fmt"
	"math"
	"testing"

	"fpcc/internal/churn"
	"fpcc/internal/control"
	"fpcc/internal/linalg"
	"fpcc/internal/parallel"
)

// The oracles below are the kinetic kernels as they were before the
// batched drift, the in-place transport sweep, the lane-interleaved
// solves and the per-worker class groups: one Drift call and one CFL
// check per edge, transport through a copy of f with closures for the
// upwind values and slopes, one solve per kernel, and one parallel
// task per class. Engine.Step must reproduce them bit for bit.

// setDriftOracle is the per-edge RateDensity.SetDrift.
func setDriftOracle(r *RateDensity, law control.Law, qObs, dt float64) error {
	dl := r.ax.Dx
	var cmax float64
	for e := 1; e < r.ax.N; e++ {
		a := law.Drift(qObs, r.ax.Edge(e))
		if c := math.Abs(a) * dt / dl; c > 1.0000001 {
			return fmt.Errorf("drift %v at λ=%v violates CFL (|c|=%.3f > 1); reduce Dt",
				a, r.ax.Edge(e), c)
		} else if c > cmax {
			cmax = c
		}
		r.drift[e] = a
	}
	r.courant = cmax
	return nil
}

// advectOracle is RateDensity.Advect through a copy of f.
func advectOracle(r *RateDensity, dt float64) {
	f := r.f
	nb := r.ax.N
	dl := r.ax.Dx
	tmp := append([]float64(nil), f...)
	at := func(i int) float64 { return tmp[i] }
	slope := func(i int) float64 {
		if i <= 0 || i >= nb-1 {
			return 0
		}
		return linalg.Minmod(at(i)-at(i-1), at(i+1)-at(i))
	}
	for e := 1; e < nb; e++ {
		a := r.drift[e]
		if a == 0 {
			continue
		}
		c := a * dt / dl
		var up float64
		if a > 0 {
			up = at(e - 1)
			if r.secondOrder {
				up += 0.5 * (1 - c) * slope(e-1)
			}
		} else {
			up = at(e)
			if r.secondOrder {
				up -= 0.5 * (1 + c) * slope(e)
			}
		}
		dm := a * up * dt / dl
		f[e-1] -= dm
		f[e] += dm
	}
}

// diffuseOracle is RateDensity.Diffuse, one kernel at a time.
func diffuseOracle(r *RateDensity, sigma, dt float64) {
	dl := r.ax.Dx
	rr := 0.5 * sigma * sigma * dt / (2 * dl * dl)
	r.fac.Ensure(rr, r.ax.N)
	r.fac.Step(r.f, r.col)
}

// engineStepOracle is Engine.Step with the kernels above, the class
// means recomputed by a full pass, and one parallel task per class.
func engineStepOracle(e *Engine) error {
	dt := e.cfg.Dt
	for j := range e.arr {
		e.arr[j] = 0
	}
	for k := range e.kerns {
		lam := e.ClassOfferedRate(k)
		for _, j := range e.route(k) {
			e.arr[j] += lam
		}
	}
	for k, kern := range e.kerns {
		for _, rd := range kern.ph {
			if err := setDriftOracle(rd, e.cfg.Classes[k].Law, e.PathBacklog(k), dt); err != nil {
				return fmt.Errorf("meanfield: class %d %v", k, err)
			}
		}
	}
	parallel.EachWorker(len(e.kerns), e.cfg.Workers, func(_, k int) {
		kern := e.kerns[k]
		for _, rd := range kern.ph {
			advectOracle(rd, dt)
		}
		if sigma := e.cfg.Classes[k].SigmaL; sigma > 0 {
			for _, rd := range kern.ph {
				diffuseOracle(rd, sigma, dt)
			}
		}
		for _, rd := range kern.ph {
			rd.clipped += -linalg.ClampNonNegative(rd.f) * rd.ax.Dx
			rd.sumsOK = false
		}
		kern.StepChurn(dt)
	})
	e.t += dt
	cut := e.t - e.maxDelay - 1
	for j := range e.q {
		e.q[j] = math.Max(e.q[j]+(e.arr[j]-e.net.Mu[j])*dt, 0)
		e.hist[j].Record(e.t, e.q[j], cut)
	}
	e.step++
	if rec := e.cfg.Obs; rec.Enabled() {
		return e.observe(rec)
	}
	return nil
}

// oracleMix is the class mix the oracle comparison steps: a closed
// class, a churn class with a fitted Pareto lifetime (several phase
// kernels), a pulsed class, and a closed class without diffusion, all
// with different delays so the drift branches flip at different times.
func oracleMix(t *testing.T, n int) []Class {
	t.Helper()
	par, err := churn.NewPareto(1.5, 4.0/3)
	if err != nil {
		t.Fatal(err)
	}
	pulse, err := churn.NewPulse(1.5, 0.25, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	law := testLaw(4*n, 2)
	return []Class{
		{Name: "closed", Law: law, N: n, Delay: 0.1, Lambda0: 1, InitStd: 0.3, SigmaL: 0.3},
		{Name: "churn", Law: law, N: n, Delay: 0.2, Lambda0: 1.2, InitStd: 0.3, SigmaL: 0.25,
			Churn: &churn.Flow{Arrival: float64(n) / 4, Lifetime: par, Lambda0: 1, InitStd: 0.3}},
		{Name: "pulsed", Law: law, N: n, Delay: 0.05, Lambda0: 0.8, InitStd: 0.2, SigmaL: 0.2, Pulse: pulse},
		{Name: "still", Law: law, N: n, Delay: 0.15, Lambda0: 0.9, InitStd: 0.2},
	}
}

// TestEngineStepMatchesOracle steps the class mix on one node and on
// a two-node network, first- and second-order, at one and three
// workers, and checks every density, ledger, Courant margin, queue and
// the time against engineStepOracle after each of 300 steps.
func TestEngineStepMatchesOracle(t *testing.T) {
	const n = 1_000_000
	classes := oracleMix(t, n)
	routed := append([]Class(nil), classes...)
	for k, route := range [][]int{{0, 1}, {0}, {1}, {0, 1}} {
		routed[k].Route = route
	}
	twoNode := Network{Scope: "mf", Nodes: []string{"a", "b"}, Mu: []float64{2 * n, 2.5 * n}}
	for _, second := range []bool{false, true} {
		for _, workers := range []int{1, 3} {
			cfg := Config{
				Classes: classes, Mu: 4 * n, LMax: 4, Bins: 160, Dt: 0.01, Q0: 2 * n,
				SecondOrder: second, Workers: workers,
			}
			for _, net := range []Network{cfg.oneNode(), twoNode} {
				if len(net.Nodes) == 2 {
					cfg.Classes = routed
				}
				name := fmt.Sprintf("nodes=%d second=%v workers=%d", len(net.Nodes), second, workers)
				e, err := NewEngine(cfg, net)
				if err != nil {
					t.Fatal(err)
				}
				if k := len(e.kerns[1].ph); k < 2 {
					t.Fatalf("the churn class has %d phase kernels, want ≥ 2", k)
				}
				o, err := NewEngine(cfg, net)
				if err != nil {
					t.Fatal(err)
				}
				for step := 0; step < 300; step++ {
					if err := e.Step(); err != nil {
						t.Fatalf("%s step %d: %v", name, step, err)
					}
					if err := engineStepOracle(o); err != nil {
						t.Fatalf("%s step %d: oracle: %v", name, step, err)
					}
					if msg := engineDiff(e, o); msg != "" {
						t.Fatalf("%s step %d: %s", name, step, msg)
					}
				}
			}
		}
	}
}

// engineDiff names the first state that differs between two engines
// in bit pattern, or returns "".
func engineDiff(e, o *Engine) string {
	bits := math.Float64bits
	if bits(e.t) != bits(o.t) {
		return fmt.Sprintf("time %v, oracle %v", e.t, o.t)
	}
	for j := range e.q {
		if bits(e.q[j]) != bits(o.q[j]) {
			return fmt.Sprintf("queue %d = %v, oracle %v", j, e.q[j], o.q[j])
		}
	}
	for k, kern := range e.kerns {
		for p, rd := range kern.ph {
			od := o.kerns[k].ph[p]
			for i := range rd.f {
				if bits(rd.f[i]) != bits(od.f[i]) {
					return fmt.Sprintf("class %d phase %d: f[%d] = %v, oracle %v", k, p, i, rd.f[i], od.f[i])
				}
			}
			for _, v := range [][2]float64{{rd.clipped, od.clipped}, {rd.born, od.born}, {rd.died, od.died}, {rd.courant, od.courant}} {
				if bits(v[0]) != bits(v[1]) {
					return fmt.Sprintf("class %d phase %d: ledger or Courant %v, oracle %v", k, p, v[0], v[1])
				}
			}
		}
		if got, want := e.ClassOfferedRate(k), o.ClassOfferedRate(k); bits(got) != bits(want) {
			return fmt.Sprintf("class %d offered rate %v, oracle %v", k, got, want)
		}
	}
	return ""
}

// TestEngineStepAllocatesNothing pins the serial engine step at zero
// allocations once the queue histories have reached their pruned size.
func TestEngineStepAllocatesNothing(t *testing.T) {
	cfg := testConfig(1_000_000)
	cfg.SecondOrder, cfg.Workers = true, 1
	d, err := NewDensity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	warmHistory(t, d)
	if a := testing.AllocsPerRun(50, func() { _ = d.Step() }); a != 0 {
		t.Errorf("Density.Step at workers=1: %v allocs per step, want 0", a)
	}
}
