package fpcc_test

import (
	"math"
	"testing"

	"fpcc"
)

// TestFacadeQuickstart exercises the documented quick-start flow end
// to end through the public API only.
func TestFacadeQuickstart(t *testing.T) {
	law, err := fpcc.NewAIMD(2, 0.8, 20)
	if err != nil {
		t.Fatal(err)
	}
	solver, err := fpcc.NewFokkerPlanck(fpcc.FokkerPlanckConfig{
		Law: law, Mu: 10, Sigma: 1,
		QMax: 60, NQ: 100, VMin: -12, VMax: 12, NV: 80,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := solver.SetGaussian(5, -2, 1.5, 1); err != nil {
		t.Fatal(err)
	}
	if err := solver.Advance(60, 0); err != nil {
		t.Fatal(err)
	}
	m := solver.Moments()
	if math.Abs(m.MeanQ-20) > 4 {
		t.Fatalf("mean queue %v, want near q̂ = 20", m.MeanQ)
	}
	if math.Abs(m.MeanV) > 2 {
		t.Fatalf("mean v %v, want near 0", m.MeanV)
	}
}

func TestFacadeCharacteristics(t *testing.T) {
	law, err := fpcc.NewAIMD(2, 0.8, 20)
	if err != nil {
		t.Fatal(err)
	}
	path, err := fpcc.TraceExact(law, 10, fpcc.Point{Q: 0, Lambda: 2}, 1000, 100000)
	if err != nil {
		t.Fatal(err)
	}
	end := path.At(path.TotalTime())
	eq := fpcc.EquilibriumPoint(law, 10)
	if math.Abs(end.Q-eq.Q) > 1 || math.Abs(end.Lambda-eq.Lambda) > 1 {
		t.Fatalf("end %+v, want equilibrium %+v", end, eq)
	}
}

func TestFacadeFluidAndShares(t *testing.T) {
	law, err := fpcc.NewAIMD(2, 0.8, 20)
	if err != nil {
		t.Fatal(err)
	}
	m := fpcc.FluidModel{
		Mu: 10, Q0: 0,
		Sources: []fpcc.FluidSource{{Law: law, Lambda0: 2}},
	}
	sol, err := m.Solve(500, 1e-3, 100)
	if err != nil {
		t.Fatal(err)
	}
	_, y := sol.Last()
	if math.Abs(y[0]-20) > 1.5 {
		t.Fatalf("fluid queue %v, want ~20", y[0])
	}
	shares, err := fpcc.PredictedShares([]fpcc.AIMD{{C0: 2, C1: 1, QHat: 20}, {C0: 1, C1: 1, QHat: 20}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(shares[0]-2.0/3) > 1e-12 {
		t.Fatalf("share[0] = %v, want 2/3", shares[0])
	}
}

func TestFacadePacketSim(t *testing.T) {
	law, err := fpcc.NewAIMD(20, 2, 15)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := fpcc.NewPacketSim(fpcc.PacketSimConfig{
		Mu:   50,
		Seed: 1,
		Sources: []fpcc.PacketSource{
			{Law: law, Interval: 0.05, Lambda0: 5, MinRate: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(300, 50)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput[0] < 35 || res.Throughput[0] > 55 {
		t.Fatalf("throughput %v, want near μ = 50", res.Throughput[0])
	}
}

func TestFacadeEnsemble(t *testing.T) {
	law, err := fpcc.NewAIMD(2, 0.8, 20)
	if err != nil {
		t.Fatal(err)
	}
	ens, err := fpcc.NewEnsemble(fpcc.EnsembleConfig{
		Law: law, Mu: 10, Sigma: 1,
		Particles: 2000, Dt: 2e-3, Seed: 5,
		Q0: 5, Lambda0: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	ens.Run(50)
	m := ens.Moments()
	if math.Abs(m.MeanQ-20) > 4 {
		t.Fatalf("ensemble mean q %v, want near 20", m.MeanQ)
	}
}

func TestFacadeJain(t *testing.T) {
	if got := fpcc.JainIndex([]float64{1, 1}); got != 1 {
		t.Fatalf("JainIndex = %v, want 1", got)
	}
}

func TestFacadeLawConstructorsValidate(t *testing.T) {
	if _, err := fpcc.NewAIMD(0, 1, 1); err == nil {
		t.Error("NewAIMD accepted zero C0")
	}
	if _, err := fpcc.NewAIMD(1, 1, -1); err == nil {
		t.Error("NewAIMD accepted negative qHat")
	}
	if _, err := fpcc.NewSmoothAIMD(1, 1, 1, 0); err == nil {
		t.Error("NewSmoothAIMD accepted zero width")
	}
}

func TestFacadeStabilityPipeline(t *testing.T) {
	law, err := fpcc.NewSmoothAIMD(2, 0.8, 20, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	lin, err := fpcc.Linearize(law, 10, 0, 60)
	if err != nil {
		t.Fatal(err)
	}
	tauStar, omega, err := fpcc.CriticalDelay(lin.A, lin.B)
	if err != nil {
		t.Fatal(err)
	}
	if !(tauStar > 0) || !(omega > 0) {
		t.Fatalf("degenerate Hopf point τ*=%v ω=%v", tauStar, omega)
	}
	root, err := fpcc.DominantRoot(lin.A, lin.B, tauStar/2)
	if err != nil {
		t.Fatal(err)
	}
	if real(root) >= 0 {
		t.Errorf("below τ* the loop must be stable, root %v", root)
	}
}

func TestFacadeBurstyPacketSim(t *testing.T) {
	law, err := fpcc.NewAIMD(2, 0.5, 15)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := fpcc.NewOnOff(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	red, err := fpcc.NewREDGateway(5, 25, 0.3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := fpcc.NewPacketSim(fpcc.PacketSimConfig{
		Mu: 30, Seed: 7, Gateway: red,
		Sources: []fpcc.PacketSource{{
			Law: law, Interval: 0.25, Lambda0: 10, MinRate: 0.5, Burst: mod,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(400, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput[0] <= 0 || res.Throughput[0] > 31 {
		t.Errorf("throughput %v out of range", res.Throughput[0])
	}
}

func TestFacadeTahoe(t *testing.T) {
	sim, err := fpcc.NewTahoeSim(fpcc.TahoeConfig{
		Mu: 100, Buffer: 20, Seed: 3,
		Flows: []fpcc.TahoeFlowConfig{{PropDelay: 0.05, RTO: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(120, 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput[0] < 50 {
		t.Errorf("Tahoe throughput %v too low", res.Throughput[0])
	}
}

func TestFacadeStatsHelpers(t *testing.T) {
	times := []float64{0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5}
	if idc, err := fpcc.IDC(times, 2, 8); err != nil || math.Abs(idc) > 1e-9 {
		t.Errorf("deterministic train IDC = %v err=%v, want 0", idc, err)
	}
}

func TestFacadeNetSim(t *testing.T) {
	law, err := fpcc.NewAIMD(10, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := fpcc.NewNetSim(fpcc.NetConfig{
		Nodes: []fpcc.NetNode{{Name: "a", Mu: 60}, {Name: "b", Mu: 40}},
		Links: []fpcc.NetLink{{From: 0, To: 1, Delay: 0.02}},
		Seed:  1,
		Flows: []fpcc.NetFlow{
			{Law: law, Route: []int{0, 1}, IngressDelay: 0.02, ReturnDelay: 0.04,
				FeedbackDelay: 0.08, Lambda0: 5, MinRate: 0.5},
			{Law: fpcc.UnresponsiveLaw{}, Route: []int{1}, IngressDelay: 0.02,
				ReturnDelay: 0.02, Lambda0: 10, MinRate: 10},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(400, 50)
	if err != nil {
		t.Fatal(err)
	}
	total := res.Throughput[0] + res.Throughput[1]
	if total < 25 || total > 40 {
		t.Fatalf("total throughput %v, want near the 40 pk/s bottleneck", total)
	}
	if res.Throughput[1] < 8 {
		t.Fatalf("constant cross flow starved: %v", res.Throughput[1])
	}
}

func TestFacadeNetSweep(t *testing.T) {
	law, err := fpcc.NewAIMD(10, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fpcc.RunSweep(fpcc.SweepConfig{
		Params: []fpcc.SweepParam{{Name: "cross", Values: []float64{0, 30}}},
		Build: func(values []float64, seed uint64) (fpcc.NetConfig, error) {
			return fpcc.NewCrossChain(fpcc.CrossChainConfig{
				Mu1: 40, Mu2: 60, Delay: 0.02, Law: law,
				Lambda0: 10, MinRate: 0.5, CrossRate: values[0], Seed: seed,
			})
		},
		Horizon:  200,
		Warmup:   40,
		BaseSeed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(res.Cells))
	}
	if res.Cells[1].Throughput[0] >= res.Cells[0].Throughput[0] {
		t.Fatalf("cross traffic did not reduce the main flow: %v vs %v",
			res.Cells[1].Throughput[0], res.Cells[0].Throughput[0])
	}
}

// TestFacadeMeanField runs the headline large-N scenario through the
// public API: a million-source two-class population on the kinetic
// engine, cross-checked against a small particle run.
func TestFacadeMeanField(t *testing.T) {
	const total = 1_000_000
	law := fpcc.AIMD{C0: 0.5, C1: 0.5, QHat: 2 * total}
	cfg := fpcc.MeanFieldConfig{
		Classes: fpcc.MeanFieldClasses(
			fpcc.MeanFieldClass{Name: "bulk", Law: law, N: total / 2, Lambda0: 1, InitStd: 0.3, SigmaL: 0.3},
			fpcc.MeanFieldClass{Name: "heavy", Law: law, N: total / 2, Weight: 2, Lambda0: 1, InitStd: 0.3, SigmaL: 0.3},
		),
		Mu: total, LMax: 4, Bins: 96, Dt: 0.01, Q0: 2 * total, SecondOrder: true,
	}
	d, err := fpcc.NewMeanField(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(30); err != nil {
		t.Fatal(err)
	}
	var qSum float64
	var n int
	for d.Time() < 50 {
		if err := d.Step(); err != nil {
			t.Fatal(err)
		}
		qSum += d.Queue()
		n++
	}
	if got := qSum / float64(n) / total; math.Abs(got-2) > 0.1 {
		t.Fatalf("per-source queue %v, want ~2", got)
	}

	pcfg := cfg
	pcfg.Classes = fpcc.MeanFieldClasses(
		fpcc.MeanFieldClass{Law: fpcc.AIMD{C0: 0.5, C1: 0.5, QHat: 2 * 2000}, N: 2000, Lambda0: 1, InitStd: 0.3, SigmaL: 0.3},
	)
	pcfg.Mu = 2000
	pcfg.Q0 = 2 * 2000
	p, err := fpcc.NewMeanFieldParticles(pcfg, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(5); err != nil {
		t.Fatal(err)
	}
	m := p.ClassMoments(0)
	if m.Count() != 2000 {
		t.Fatalf("particle count %d, want 2000", m.Count())
	}
	if m.Mean() < 0 || m.Mean() > 4 {
		t.Fatalf("particle mean rate %v outside the domain", m.Mean())
	}
}

// TestFacadeNetMeanField runs the networked large-N engine through
// the public API: the million-source parking lot, plus the topology
// vocabulary shared with NetSim.
func TestFacadeNetMeanField(t *testing.T) {
	cfg, err := fpcc.NewNetMeanFieldParkingLot(fpcc.NetMeanFieldParkingLotConfig{
		Hops: 2, N: 1_000_000, Delay: 0.1, Bins: 96,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.SecondOrder = true
	if got := len(cfg.Topology.Nodes); got != 2 {
		t.Fatalf("parking lot has %d nodes, want 2", got)
	}
	// The topology type is netsim's: the same graph drives NetSim.
	var topo fpcc.NetTopology = cfg.Topology
	if err := topo.ValidateRoute([]int{0, 1}); err != nil {
		t.Fatalf("chain route rejected: %v", err)
	}
	if err := topo.ValidateRoute([]int{1, 0}); err == nil {
		t.Fatal("reverse route accepted without a reverse link")
	}
	e, err := fpcc.NewNetMeanField(cfg)
	if err != nil {
		t.Fatal(err)
	}
	meanQ, rates, err := fpcc.NetMeanFieldSteadyStats(e, 20, 40, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(meanQ) != 2 || len(rates) != 3 {
		t.Fatalf("got %d node and %d class averages, want 2 and 3", len(meanQ), len(rates))
	}
	// The E26/E30 ordering: the long class below every cross class.
	if rates[0] >= rates[1] || rates[0] >= rates[2] {
		t.Fatalf("long class %v not beaten below cross shares %v, %v", rates[0], rates[1], rates[2])
	}
	cc, err := fpcc.NewNetMeanFieldCrossChain(fpcc.NetMeanFieldCrossChainConfig{
		N: 10_000, CrossFrac: 0.3, Delay: 0.1, Bins: 96,
	})
	if err != nil {
		t.Fatal(err)
	}
	ce, err := fpcc.NewNetMeanField(cc)
	if err != nil {
		t.Fatal(err)
	}
	if err := ce.Run(5); err != nil {
		t.Fatal(err)
	}
	if ce.TotalQueue() < 0 {
		t.Fatalf("negative total queue %v", ce.TotalQueue())
	}
}
