package main

import (
	"math"

	"fpcc/internal/churn"
	"fpcc/internal/control"
	"fpcc/internal/dde"
	"fpcc/internal/des"
	"fpcc/internal/fluid"
	"fpcc/internal/fokkerplanck"
	"fpcc/internal/meanfield"
	"fpcc/internal/netmf"
	"fpcc/internal/netsim"
	"fpcc/internal/sde"
)

// The engine configurations of the registry experiments, restated from
// internal/experiments (where they are unexported) so that set-up and
// the layer replay build exactly what the experiments build. Seeds and
// worker bounds are parameters: the replay draws its seeds from -seed,
// and the sharded probes run at two workers.

// refLaw and refMu are the reference AIMD law and service rate of
// E9/E14.
var refLaw = control.AIMD{C0: 2, C1: 0.8, QHat: 20}

const refMu = 10.0

// e9FP is the E9/E14 Fokker-Planck grid: 150×120 cells, σ = 1.5.
func e9FP(secondOrder bool, workers int) fokkerplanck.Config {
	return fokkerplanck.Config{
		Law: refLaw, Mu: refMu, Sigma: 1.5,
		QMax: 60, NQ: 150,
		VMin: -12, VMax: 12, NV: 120,
		SecondOrder: secondOrder,
		Workers:     workers,
	}
}

// newE9FP builds the E9 solver with its initial Gaussian.
func newE9FP(secondOrder bool, workers int) (*fokkerplanck.Solver, error) {
	s, err := fokkerplanck.New(e9FP(secondOrder, workers))
	if err != nil {
		return nil, err
	}
	return s, s.SetGaussian(5, 8-refMu, 1.5, 1)
}

// e9SDE is the E9 Monte-Carlo ensemble (E14 uses 20 000 particles).
func e9SDE(particles, workers int, seed uint64) sde.Config {
	return sde.Config{
		Law: refLaw, Mu: refMu, Sigma: 1.5,
		Particles: particles, Dt: 2e-3, Seed: seed,
		Q0: 5, Lambda0: 8, InitStdQ: 1.5, InitStdL: 1,
		Workers: workers,
	}
}

// newE17FP builds E17's Fokker-Planck solver (80×96 cells).
func newE17FP() (*fokkerplanck.Solver, error) {
	law := control.AIMD{C0: 2, C1: 0.8, QHat: 8}
	s, err := fokkerplanck.New(fokkerplanck.Config{
		Law: law, Mu: 10, Sigma: math.Sqrt(4 + 10), // √(λ0 + μ) at λ0 = 4
		QMax: 40, NQ: 80, VMin: -12, VMax: 12, NV: 96,
	})
	if err != nil {
		return nil, err
	}
	return s, s.SetGaussian(0.5, 4-10, 0.8, 0.8)
}

// mfScaled is E28's scaled single-class scenario with n sources.
func mfScaled(n int) meanfield.Config {
	return meanfield.Config{
		Classes: []meanfield.Class{{
			Law:     control.AIMD{C0: 0.5, C1: 0.5, QHat: 2 * float64(n)},
			N:       n,
			Lambda0: 1, InitStd: 0.3, SigmaL: 0.3,
		}},
		Mu: float64(n), LMax: 4, Bins: 160, Dt: 0.01, Q0: 2 * float64(n),
	}
}

// e32Cell is one E32 cell: 10⁶ honest AIMD sources against 2·10⁵
// unresponsive sources offering 30% of μ.
func e32Cell() meanfield.Config {
	const n, nAtt = 1_000_000, 200_000
	return meanfield.Config{
		Classes: []meanfield.Class{
			{
				Name: "honest", Law: control.AIMD{C0: 0.5, C1: 0.5, QHat: 2 * n},
				N: n, Delay: 0.2, Lambda0: 1, InitStd: 0.3, SigmaL: 0.3,
			},
			{
				Name: "attacker", Law: control.Unresponsive{}, N: nAtt,
				Lambda0: 0.3 * n / nAtt, InitStd: 0.1, SigmaL: 0.05,
			},
		},
		Mu: n, LMax: 4, Bins: 160, Dt: 0.01, Q0: 2 * n, SecondOrder: true,
	}
}

// e30Lot is E30's heaviest cell: a five-hop parking lot with 10⁶
// sources per class (six classes, 192 rate bins).
func e30Lot(workers int) (netmf.Config, error) {
	cfg, err := netmf.ParkingLot(netmf.ParkingLotConfig{Hops: 5, N: 1_000_000, Delay: 0.2, RTTStretch: 1})
	cfg.SecondOrder, cfg.Workers = true, workers
	return cfg, err
}

// e34Churn is an E34 cell: a two-hop parking lot at 10⁶ sources per
// class whose long class turns over with exponential lifetimes of mean
// 4 s.
func e34Churn(workers int) (netmf.Config, error) {
	const n = 1_000_000
	lt, err := churn.NewExponential(4)
	if err != nil {
		return netmf.Config{}, err
	}
	law := control.AIMD{C0: 0.5, C1: 0.5, QHat: 2 * n}
	return netmf.Config{
		Topology: netsim.Topology{
			Nodes: []netsim.Node{{Name: "hop0", Mu: 2 * n}, {Name: "hop1", Mu: 2 * n}},
			Links: []netsim.Link{{From: 0, To: 1}},
		},
		Classes: []netmf.Class{
			{Name: "long", Law: law, N: n, Route: []int{0, 1}, Lambda0: 1, InitStd: 0.3, SigmaL: 0.3,
				Churn: &churn.Flow{Arrival: n / 4, Lifetime: lt, Lambda0: 1, InitStd: 0.3}},
			{Name: "cross0", Law: law, N: n, Route: []int{0}, Lambda0: 1, InitStd: 0.3, SigmaL: 0.3},
			{Name: "cross1", Law: law, N: n, Route: []int{1}, Lambda0: 1, InitStd: 0.3, SigmaL: 0.3},
		},
		LMax: 4, Bins: 160, Dt: 0.01, SecondOrder: true, Workers: workers,
	}, nil
}

// smoothLaw is the smooth AIMD law of E19 and E24.
func smoothLaw() (control.SmoothAIMD, error) { return control.NewSmoothAIMD(2, 0.8, 20, 1.5) }

// e5Laws are E5's heterogeneous AIMD parameters.
var e5Laws = []control.AIMD{
	{C0: 2, C1: 0.8, QHat: 20},
	{C0: 1, C1: 0.8, QHat: 20},
	{C0: 2, C1: 1.6, QHat: 20},
}

// e5Model is E5's three-source fluid model.
func e5Model() fluid.Model {
	srcs := make([]fluid.Source, len(e5Laws))
	for i, l := range e5Laws {
		srcs[i] = fluid.Source{Law: l, Lambda0: 1}
	}
	return fluid.Model{Mu: refMu, Sources: srcs}
}

// e24System is E24's nonlinear n-source delay system at τ = 0.35 s:
// state 0 is the shared queue, state i the rate of source i.
func e24System(law control.Law, n int) (dde.System, dde.History) {
	const mu, tau = 10.0, 0.35
	sys := func(_ float64, y []float64, lag dde.Lagger, dydt []float64) {
		qDel := lag.Lag(0, tau)
		var sum float64
		for i := 1; i <= n; i++ {
			sum += y[i]
		}
		dydt[0] = sum - mu
		if y[0] <= 0 && sum < mu {
			dydt[0] = 0
		}
		for i := 1; i <= n; i++ {
			dydt[i] = law.Drift(qDel, y[i])
		}
	}
	hist := func(float64) []float64 {
		y := make([]float64, n+1)
		y[0] = 5
		for i := 1; i <= n; i++ {
			y[i] = (mu / float64(n)) * (0.5 + float64(i)/float64(n))
		}
		return y
	}
	return sys, hist
}

// e3DES is E3's single-source packet simulation.
func e3DES(seed uint64) des.Config {
	return des.Config{
		Mu: 50, Seed: seed, SampleEvery: 0.1,
		Sources: []des.SourceConfig{{
			Law: control.AIMD{C0: 20, C1: 2, QHat: 15}, Interval: 0.05, Lambda0: 5, MinRate: 1,
		}},
	}
}

// e21Tahoe is E21's two-flow Tahoe bottleneck at RTT ratio 8.
func e21Tahoe(seed uint64) des.TahoeConfig {
	const baseD, rr = 0.025, 8.0
	return des.TahoeConfig{
		Mu: 100, Buffer: 25, Seed: seed,
		Flows: []des.TahoeFlowConfig{
			{PropDelay: baseD, RTO: 32 * baseD},
			{PropDelay: baseD * rr, RTO: 32 * baseD * rr},
		},
	}
}

// e16Tandem is E16's five-hop tandem network with flows of 1, 2 and 4
// hops sharing hop 1.
func e16Tandem(seed uint64) des.TandemConfig {
	const a, prop = 1.2, 0.02
	law := func(hops int) control.AIMD {
		return control.AIMD{C0: a / (2 * prop * float64(hops)), C1: 2, QHat: 12}
	}
	return des.TandemConfig{
		Mus:       []float64{200, 40, 200, 200, 200},
		PropDelay: prop,
		Seed:      seed,
		Sources: []des.TandemSource{
			{Law: law(1), Path: []int{1}, Lambda0: 5, MinRate: 0.5},
			{Law: law(2), Path: []int{0, 1}, Lambda0: 5, MinRate: 0.5},
			{Law: law(4), Path: []int{0, 1, 2, 3}, Lambda0: 5, MinRate: 0.5},
		},
	}
}

// e26Lot is E26's three-hop packet-level parking lot.
func e26Lot(seed uint64) (netsim.Config, error) {
	return netsim.ParkingLot(netsim.ParkingLotConfig{
		Hops: 3, Mu: 40, Delay: 0.02, Law: control.AIMD{C0: 10, C1: 2, QHat: 12},
		Lambda0: 5, MinRate: 0.5, Seed: seed,
	})
}
