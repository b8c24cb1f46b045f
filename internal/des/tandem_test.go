package des

import (
	"math"
	"testing"

	"fpcc/internal/control"
	"fpcc/internal/queue"
)

func TestTandemValidate(t *testing.T) {
	l := control.AIMD{C0: 10, C1: 2, QHat: 12}
	good := TandemConfig{
		Mus: []float64{50}, PropDelay: 0.01,
		Sources: []TandemSource{{Law: l, Path: []int{0}, Lambda0: 5}},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []TandemConfig{
		{PropDelay: 0.01, Sources: good.Sources},                    // no hops
		{Mus: []float64{0}, PropDelay: 0.01, Sources: good.Sources}, // zero mu
		{Mus: []float64{50}, PropDelay: 0, Sources: good.Sources},   // zero prop
		{Mus: []float64{50}, PropDelay: 0.01},                       // no sources
		{Mus: []float64{50}, PropDelay: 0.01, Sources: []TandemSource{{Law: nil, Path: []int{0}}}},
		{Mus: []float64{50}, PropDelay: 0.01, Sources: []TandemSource{{Law: l, Path: nil}}},
		{Mus: []float64{50}, PropDelay: 0.01, Sources: []TandemSource{{Law: l, Path: []int{3}}}},
		{Mus: []float64{50}, PropDelay: 0.01, Sources: []TandemSource{{Law: l, Path: []int{0}, Lambda0: -1}}},
		{Mus: []float64{50}, PropDelay: 0.01, Sources: []TandemSource{{Law: l, Path: []int{0}, Lambda0: math.NaN()}}},
		{Mus: []float64{50}, PropDelay: 0.01, Sources: []TandemSource{{Law: l, Path: []int{0}, Lambda0: math.Inf(1)}}},
		{Mus: []float64{50}, PropDelay: 0.01, Sources: []TandemSource{{Law: l, Path: []int{0}, MinRate: math.NaN()}}},
		{Mus: []float64{50}, PropDelay: 0.01, Sources: []TandemSource{{Law: l, Path: []int{0}, MinRate: math.Inf(1)}}},
		// An infinite delay ran to all-zero throughput.
		{Mus: []float64{50}, PropDelay: math.Inf(1), Sources: good.Sources},
		{Mus: []float64{50}, PropDelay: math.NaN(), Sources: good.Sources},
		// A finite delay whose round trip overflows.
		{Mus: []float64{50}, PropDelay: 1e308, Sources: good.Sources},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
		if _, err := NewTandem(c); err == nil {
			t.Errorf("NewTandem built bad config %d", i)
		}
	}
}

// TestTandemSingleHopMatchesMM1: one hop, one frozen-rate flow — the
// network collapses to M/M/1 and must match the closed form.
func TestTandemSingleHopMatchesMM1(t *testing.T) {
	const lam, mu = 6.0, 10.0
	cfg := TandemConfig{
		Mus: []float64{mu}, PropDelay: 0.001, Seed: 3,
		Sources: []TandemSource{{
			Law:     control.Custom{DriftFunc: func(q, l float64) float64 { return 0 }, QHat: math.Inf(1)},
			Path:    []int{0},
			Lambda0: lam,
		}},
	}
	s, err := NewTandem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(20000, 2000)
	if err != nil {
		t.Fatal(err)
	}
	qm, err := queue.NewMM1(lam, mu)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.MeanBacklog[0], qm.MeanNumber(); math.Abs(got-want)/want > 0.1 {
		t.Fatalf("hop backlog %v, want M/M/1 %v", got, want)
	}
	if math.Abs(res.Throughput[0]-lam)/lam > 0.05 {
		t.Fatalf("throughput %v, want ~%v", res.Throughput[0], lam)
	}
}

// TestTandemDeterministic: same seed, same result.
func TestTandemDeterministic(t *testing.T) {
	l := control.AIMD{C0: 20, C1: 2, QHat: 10}
	run := func() int64 {
		cfg := TandemConfig{
			Mus: []float64{40, 60}, PropDelay: 0.01, Seed: 11,
			Sources: []TandemSource{{Law: l, Path: []int{0, 1}, Lambda0: 5, MinRate: 1}},
		}
		s, err := NewTandem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(200, 20)
		if err != nil {
			t.Fatal(err)
		}
		return res.Delivered[0]
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different deliveries: %d vs %d", a, b)
	}
}

// TestTandemAdaptiveFillsBottleneck: one adaptive flow over two hops
// utilizes the slower (bottleneck) hop.
func TestTandemAdaptiveFillsBottleneck(t *testing.T) {
	cfg := TandemConfig{
		Mus: []float64{80, 40}, PropDelay: 0.01, Seed: 5,
		Sources: []TandemSource{{
			Law:     control.AIMD{C0: 30, C1: 2, QHat: 12},
			Path:    []int{0, 1},
			Lambda0: 5, MinRate: 1,
		}},
	}
	s, err := NewTandem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(2000, 200)
	if err != nil {
		t.Fatal(err)
	}
	util := res.Throughput[0] / 40
	if util < 0.7 || util > 1.05 {
		t.Fatalf("bottleneck utilization %v, want high", util)
	}
	// The backlog should sit mostly at the slow hop.
	if !(res.MeanBacklog[1] > res.MeanBacklog[0]) {
		t.Fatalf("backlog at fast hop %v >= slow hop %v", res.MeanBacklog[0], res.MeanBacklog[1])
	}
}

// TestTandemHopCountBias reproduces the Zhang/Jacobson observation the
// paper's introduction cites: a flow crossing more hops (longer RTT)
// gets a clearly poorer share of the shared bottleneck. As in E7, the
// window-protocol semantics make the additive probe per-RTT, so the
// rate-law gain is C0 = a/RTT; the longer path also sees a staler
// backlog signal. (With per-second-equal laws the staleness alone
// still biases the split, but only by ~15%.)
func TestTandemHopCountBias(t *testing.T) {
	const a = 1.2 // additive rate probe per RTT
	const prop = 0.02
	rttOf := func(hops int) float64 { return 2 * prop * float64(hops) }
	mkLaw := func(hops int) control.AIMD {
		return control.AIMD{C0: a / rttOf(hops), C1: 2, QHat: 12}
	}
	cfg := TandemConfig{
		// Hop 1 is the shared bottleneck; hops 0, 2, 3 are fast
		// transit hops the long flow also crosses.
		Mus: []float64{200, 40, 200, 200}, PropDelay: prop, Seed: 13,
		Sources: []TandemSource{
			{Law: mkLaw(1), Path: []int{1}, Lambda0: 5, MinRate: 0.5},          // 1 hop
			{Law: mkLaw(4), Path: []int{0, 1, 2, 3}, Lambda0: 5, MinRate: 0.5}, // 4 hops
		},
	}
	s, err := NewTandem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !(s.RTT(1) > s.RTT(0)) {
		t.Fatal("long path should have larger RTT")
	}
	res, err := s.Run(4000, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Throughput[0] > 1.3*res.Throughput[1]) {
		t.Fatalf("1-hop flow %v should clearly beat 4-hop flow %v",
			res.Throughput[0], res.Throughput[1])
	}
	// Both still make progress.
	if res.Throughput[1] <= 0 {
		t.Fatal("long flow starved completely")
	}
}

// TestTandemRunValidation covers Run's argument checks.
func TestTandemRunValidation(t *testing.T) {
	l := control.AIMD{C0: 10, C1: 2, QHat: 12}
	cfg := TandemConfig{
		Mus: []float64{50}, PropDelay: 0.01,
		Sources: []TandemSource{{Law: l, Path: []int{0}, Lambda0: 5}},
	}
	checkRunWindows(t, func(horizon, warmup float64) error {
		s, err := NewTandem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.Run(horizon, warmup)
		return err
	})
}

func BenchmarkTandemFourHops(b *testing.B) {
	law := control.AIMD{C0: 30, C1: 2, QHat: 12}
	for i := 0; i < b.N; i++ {
		cfg := TandemConfig{
			Mus: []float64{200, 40, 200, 200}, PropDelay: 0.02, Seed: 1,
			Sources: []TandemSource{
				{Law: law, Path: []int{1}, Lambda0: 5, MinRate: 0.5},
				{Law: law, Path: []int{0, 1, 2, 3}, Lambda0: 5, MinRate: 0.5},
			},
		}
		s, err := NewTandem(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(200, 20); err != nil {
			b.Fatal(err)
		}
	}
}
