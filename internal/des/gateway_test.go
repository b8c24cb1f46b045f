package des

import (
	"math"
	"testing"

	"fpcc/internal/control"
	"fpcc/internal/rng"
	"fpcc/internal/stats"
)

func TestEWMAGatewayValidation(t *testing.T) {
	for _, tc := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewEWMAGateway(tc); err == nil {
			t.Errorf("Tc=%v: want error", tc)
		}
	}
}

func TestEWMAGatewayConvergesToConstantQueue(t *testing.T) {
	g, err := NewEWMAGateway(0.5)
	if err != nil {
		t.Fatal(err)
	}
	g.Reset()
	// Queue sits at 10 from t=0; after many time constants the
	// average must approach 10.
	g.Signal(0, 10)
	got := g.Signal(20, 10)
	if math.Abs(got-10) > 1e-10 {
		t.Errorf("EWMA after 40 time constants = %v, want 10", got)
	}
}

func TestEWMAGatewayExactDecay(t *testing.T) {
	// One interval of length Tc with the queue at Q moves the average
	// by (1 − e^{−1})(Q − avg).
	g, err := NewEWMAGateway(2)
	if err != nil {
		t.Fatal(err)
	}
	g.Reset()
	g.Signal(0, 8) // avg still 0 (no elapsed time), prevQ = 8
	got := g.Signal(2, 0)
	want := (1 - math.Exp(-1)) * 8
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("avg = %v, want %v", got, want)
	}
}

func TestEWMAGatewayLagsBehindInstantaneous(t *testing.T) {
	// After a step 0→12 the average must sit strictly between 0 and
	// 12 for times comparable to Tc.
	g, err := NewEWMAGateway(1)
	if err != nil {
		t.Fatal(err)
	}
	g.Reset()
	g.Signal(0, 12)
	mid := g.Signal(0.5, 12)
	if !(mid > 0 && mid < 12) {
		t.Errorf("EWMA after half a time constant = %v, want inside (0, 12)", mid)
	}
}

func TestREDGatewayValidation(t *testing.T) {
	cases := []struct{ minTh, maxTh, maxP, tc float64 }{
		{-1, 10, 0.5, 1}, {10, 10, 0.5, 1}, {5, 10, 0, 1}, {5, 10, 1.5, 1},
		{5, 10, 0.5, 0}, {5, math.Inf(1), 0.5, 1},
	}
	for _, c := range cases {
		if _, err := NewREDGateway(c.minTh, c.maxTh, c.maxP, c.tc); err == nil {
			t.Errorf("RED(%v,%v,%v,%v): want error", c.minTh, c.maxTh, c.maxP, c.tc)
		}
	}
}

func TestREDMarkProbPiecewise(t *testing.T) {
	g, err := NewREDGateway(5, 15, 0.4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ avg, want float64 }{
		{0, 0}, {4.99, 0}, {5, 0}, {10, 0.2}, {15, 1}, {30, 1},
	} {
		if p := g.MarkProb(tc.avg); math.Abs(p-tc.want) > 1e-12 {
			t.Errorf("MarkProb(%v) = %v, want %v", tc.avg, p, tc.want)
		}
	}
}

func TestREDObserveMarksBernoulli(t *testing.T) {
	g, err := NewREDGateway(5, 15, 0.4, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	const qHat = 20.0
	const n = 50000
	marked := 0
	for i := 0; i < n; i++ {
		switch o := g.Observe(10, qHat, r); o {
		case qHat + 1:
			marked++
		case 0:
		default:
			t.Fatalf("Observe returned %v, want 0 or qHat+1", o)
		}
	}
	frac := float64(marked) / n
	if math.Abs(frac-0.2) > 0.01 {
		t.Errorf("marking fraction %v, want ≈ 0.2", frac)
	}
}

// runGatewaySim runs one AIMD source behind the given gateway and
// returns the post-warmup queue stats and rate trace.
func runGatewaySim(t *testing.T, gw Gateway, seed uint64) (*Result, stats.WeightedMoments) {
	t.Helper()
	law, err := control.NewAIMD(2, 0.5, 15)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Mu:      30,
		Seed:    seed,
		Gateway: gw,
		Sources: []SourceConfig{{
			Law: law, Interval: 0.25, Lambda0: 10, MinRate: 0.5, Delay: 0.5,
		}},
	}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(1500, 300)
	if err != nil {
		t.Fatal(err)
	}
	return res, res.QueueStats
}

func TestREDKeepsLoopAliveAndBoundsQueue(t *testing.T) {
	red, err := NewREDGateway(5, 25, 0.3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	res, qs := runGatewaySim(t, red, 77)
	if res.Throughput[0] < 15 || res.Throughput[0] > 31 {
		t.Errorf("throughput %v under RED outside (15, 31)", res.Throughput[0])
	}
	if qs.Mean() < 1 || qs.Mean() > 40 {
		t.Errorf("mean queue %v under RED outside (1, 40)", qs.Mean())
	}
}

func TestEWMAGatewaySmoothsRateSwing(t *testing.T) {
	// Source-visible signal smoothing cuts the high-frequency rate
	// jitter: the post-warmup standard deviation of the rate behind an
	// EWMA gateway must not exceed the raw-threshold one by much, and
	// the loop must stay near the same operating point.
	ewma, err := NewEWMAGateway(1.0)
	if err != nil {
		t.Fatal(err)
	}
	resE, _ := runGatewaySim(t, ewma, 42)
	resT, _ := runGatewaySim(t, nil, 42)
	sdE, sdT := resE.Rate[0].StdDev(), resT.Rate[0].StdDev()
	if sdE > 1.5*sdT {
		t.Errorf("EWMA rate stdev %v much larger than threshold %v", sdE, sdT)
	}
	if math.Abs(resE.Throughput[0]-resT.Throughput[0]) > 8 {
		t.Errorf("throughput moved too much: ewma %v vs threshold %v",
			resE.Throughput[0], resT.Throughput[0])
	}
}
