package des

import (
	"math"
	"testing"

	"fpcc/internal/control"
	"fpcc/internal/queue"
	"fpcc/internal/stats"
	"fpcc/internal/traffic"
)

// frozenLaw holds the rate constant: the adaptive system degenerates
// to a plain M/M/1 queue, which we can check against closed forms.
var frozenLaw = control.Custom{
	DriftFunc: func(q, lambda float64) float64 { return 0 },
	LawName:   "frozen",
	QHat:      math.Inf(1),
}

func TestValidate(t *testing.T) {
	l := control.AIMD{C0: 2, C1: 0.8, QHat: 20}
	good := Config{Mu: 10, Sources: []SourceConfig{{Law: l, Interval: 0.1, Lambda0: 1}}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Mu: 0, Sources: []SourceConfig{{Law: l, Interval: 0.1}}},
		{Mu: 10},
		{Mu: 10, Sources: []SourceConfig{{Law: nil, Interval: 0.1}}},
		{Mu: 10, Sources: []SourceConfig{{Law: l, Interval: 0}}},
		{Mu: 10, Sources: []SourceConfig{{Law: l, Interval: 0.1, Delay: -1}}},
		{Mu: 10, Sources: []SourceConfig{{Law: l, Interval: 0.1, Lambda0: -1}}},
		{Mu: 10, Sources: []SourceConfig{{Law: l, Interval: 0.1, MinRate: -1}}},
		{Mu: 10, Sources: []SourceConfig{{Law: l, Interval: 0.1}}, SampleEvery: -1},
		{Mu: 10, Sources: []SourceConfig{{Law: l, Interval: 0.1}}, SampleEvery: math.NaN()},
		{Mu: 10, Sources: []SourceConfig{{Law: l, Interval: 0.1}}, SampleEvery: math.Inf(1)},
		{Mu: 10, Sources: []SourceConfig{{Law: l, Interval: math.Inf(1)}}},
		{Mu: 10, Sources: []SourceConfig{{Law: l, Interval: 0.1, Lambda0: math.NaN()}}},
		{Mu: 10, Sources: []SourceConfig{{Law: l, Interval: 0.1, Lambda0: math.Inf(1)}}},
		{Mu: 10, Sources: []SourceConfig{{Law: l, Interval: 0.1, MinRate: math.NaN()}}},
		{Mu: 10, Sources: []SourceConfig{{Law: l, Interval: 0.1, MinRate: math.Inf(1)}}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
		if _, err := New(c); err == nil {
			t.Errorf("New built bad config %d", i)
		}
	}
}

// badWindows are run windows every packet engine's Run rejects: a
// horizon that is not finite and positive, or a warmup outside
// [0, horizon).
var badWindows = []struct{ horizon, warmup float64 }{
	{0, 0}, {math.NaN(), 0}, {math.Inf(1), 0},
	{10, 10}, {10, 20}, {10, -1}, {10, math.NaN()}, {10, math.Inf(1)}, {10, math.Inf(-1)},
}

// checkRunWindows wants run, which builds a fresh engine and calls its
// Run, to reject every one of badWindows.
func checkRunWindows(t *testing.T, run func(horizon, warmup float64) error) {
	t.Helper()
	for _, w := range badWindows {
		if err := run(w.horizon, w.warmup); err == nil {
			t.Errorf("accepted horizon %v / warmup %v", w.horizon, w.warmup)
		}
	}
}

func TestCheckRunWindow(t *testing.T) {
	checkRunWindows(t, CheckRunWindow)
	for _, w := range [][2]float64{{10, 0}, {10, 9.5}, {1e-3, 0}} {
		if err := CheckRunWindow(w[0], w[1]); err != nil {
			t.Errorf("rejected horizon %v / warmup %v: %v", w[0], w[1], err)
		}
	}
}

func TestRunValidation(t *testing.T) {
	cfg := Config{Mu: 10, Sources: []SourceConfig{{Law: frozenLaw, Interval: 1, Lambda0: 5}}}
	checkRunWindows(t, func(horizon, warmup float64) error {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.Run(horizon, warmup)
		return err
	})
}

func TestDeterministicGivenSeed(t *testing.T) {
	cfg := Config{
		Mu:   20,
		Seed: 42,
		Sources: []SourceConfig{
			{Law: control.AIMD{C0: 5, C1: 0.5, QHat: 10}, Interval: 0.1, Lambda0: 5},
		},
	}
	run := func() []int64 {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(100, 10)
		if err != nil {
			t.Fatal(err)
		}
		return res.Delivered
	}
	a, b := run(), run()
	if a[0] != b[0] {
		t.Fatalf("same seed, different deliveries: %d vs %d", a[0], b[0])
	}
}

// TestMM1Anchor: with a frozen rate the simulator is an M/M/1 queue;
// its time-averaged queue length must match L = rho/(1-rho).
func TestMM1Anchor(t *testing.T) {
	const lam, mu = 6.0, 10.0
	cfg := Config{
		Mu:   mu,
		Seed: 7,
		Sources: []SourceConfig{
			{Law: frozenLaw, Interval: 1000, Lambda0: lam}, // effectively no control
		},
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(30000, 2000)
	if err != nil {
		t.Fatal(err)
	}
	q, err := queue.NewMM1(lam, mu)
	if err != nil {
		t.Fatal(err)
	}
	gotL := res.QueueStats.Mean()
	wantL := q.MeanNumber()
	if math.Abs(gotL-wantL)/wantL > 0.08 {
		t.Fatalf("mean queue %v, want M/M/1 value %v", gotL, wantL)
	}
	// Throughput equals the arrival rate for a stable queue.
	if math.Abs(res.Throughput[0]-lam)/lam > 0.05 {
		t.Fatalf("throughput %v, want ~%v", res.Throughput[0], lam)
	}
}

// TestAdaptiveConvergesNearTarget: a single AIMD source without delay
// should hold the queue near q̂ and its rate near μ on average.
func TestAdaptiveConvergesNearTarget(t *testing.T) {
	const mu = 50.0
	cfg := Config{
		Mu:   mu,
		Seed: 3,
		Sources: []SourceConfig{
			{Law: control.AIMD{C0: 20, C1: 2, QHat: 15}, Interval: 0.05, Lambda0: 5, MinRate: 1},
		},
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(2000, 200)
	if err != nil {
		t.Fatal(err)
	}
	// Rate hovers near mu: throughput close to full utilization.
	if res.Throughput[0] < 0.8*mu || res.Throughput[0] > 1.05*mu {
		t.Fatalf("throughput %v, want near μ = %v", res.Throughput[0], mu)
	}
	// Mean queue in the vicinity of the target (stochastic system
	// oscillates around it; the paper's point is it stays close).
	meanQ := res.QueueStats.Mean()
	if meanQ < 5 || meanQ > 40 {
		t.Fatalf("mean queue %v, want in the vicinity of q̂ = 15", meanQ)
	}
}

// TestEqualSourcesFairness: identical sources must converge to nearly
// equal throughput (Jain index near 1) — the stochastic counterpart of
// the Section 6 fairness result.
func TestEqualSourcesFairness(t *testing.T) {
	const mu = 60.0
	law := control.AIMD{C0: 10, C1: 2, QHat: 12}
	srcs := make([]SourceConfig, 3)
	for i := range srcs {
		srcs[i] = SourceConfig{Law: law, Interval: 0.05, Lambda0: float64(1 + 10*i), MinRate: 0.5}
	}
	cfg := Config{Mu: mu, Seed: 11, Sources: srcs}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(3000, 500)
	if err != nil {
		t.Fatal(err)
	}
	jain := stats.JainIndex(res.Throughput)
	if jain < 0.98 {
		t.Fatalf("Jain index %v (throughputs %v), want >= 0.98", jain, res.Throughput)
	}
}

// TestLongConnectionUnfairness: the packet-level analogue of the
// Jacobson/Zhang observation that connections with longer round-trip
// paths get a poorer share. A longer path means both a larger feedback
// delay and a slower update cadence (one window step per RTT), so the
// long connection's rate law is the RTT-scaled window equivalent:
// additive gain a per RTT gives C0 = a/RTT per update-second. The
// deterministic pure-delay effect is isolated separately in the fluid
// model tests (fluid.TestDelayUnfairness); the noisy packet system
// needs the full RTT coupling for the bias to dominate the noise.
func TestLongConnectionUnfairness(t *testing.T) {
	const mu = 60.0
	const a = 2.0 // rate gain per update, window-style
	mkSource := func(rtt float64) SourceConfig {
		return SourceConfig{
			Law:      control.AIMD{C0: a / rtt, C1: 2, QHat: 12},
			Interval: rtt,
			Delay:    rtt,
			Lambda0:  10,
			MinRate:  0.5,
		}
	}
	cfg := Config{
		Mu:      mu,
		Seed:    13,
		Sources: []SourceConfig{mkSource(0.1), mkSource(0.4)},
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(4000, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Throughput[0] > res.Throughput[1]*1.5) {
		t.Fatalf("short connection %v should clearly beat long connection %v",
			res.Throughput[0], res.Throughput[1])
	}
}

func TestTraceSampling(t *testing.T) {
	cfg := Config{
		Mu:          20,
		Seed:        5,
		SampleEvery: 0.5,
		Sources: []SourceConfig{
			{Law: frozenLaw, Interval: 1000, Lambda0: 10},
		},
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(100, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TraceT) == 0 || len(res.TraceT) != len(res.TraceQ) {
		t.Fatalf("trace lengths %d / %d", len(res.TraceT), len(res.TraceQ))
	}
	for i := 1; i < len(res.TraceT); i++ {
		if res.TraceT[i] <= res.TraceT[i-1] {
			t.Fatalf("trace times not increasing at %d", i)
		}
	}
	for _, q := range res.TraceQ {
		if q < 0 {
			t.Fatal("negative queue in trace")
		}
	}
}

func TestRateTraceRecorded(t *testing.T) {
	cfg := Config{
		Mu:   20,
		Seed: 5,
		Sources: []SourceConfig{
			{Law: control.AIMD{C0: 5, C1: 1, QHat: 10}, Interval: 0.1, Lambda0: 5},
		},
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(50, 5)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rate[0].Count(); n < 400 {
		t.Fatalf("only %d control updates in the 45s after warmup at 0.1s interval", n)
	}
	if m := res.Rate[0].Min(); m < 0 {
		t.Fatalf("negative rate %v recorded", m)
	}
}

// TestRateCountsUpdateAtWarmup runs E20's threshold-gateway source and
// pins Rate's warmup boundary: its 0.25 s control interval puts one
// update exactly at t = 500, and Rate counts it with the 10,000 after
// it, as E20's rate spread always has.
func TestRateCountsUpdateAtWarmup(t *testing.T) {
	law, err := control.NewAIMD(2, 0.5, 15)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mu: 30, Seed: 61, Sources: []SourceConfig{{
		Law: law, Interval: 0.25, Delay: 0.5, Lambda0: 10, MinRate: 0.5,
	}}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const horizon, warmup = 3000.0, 500.0
	res, err := s.Run(horizon, warmup)
	if err != nil {
		t.Fatal(err)
	}
	// Control updates fire at k·0.25 s for k = 1, 2, …: warmup/0.25 is
	// the update at t = 500 itself.
	want := int((horizon-warmup)/0.25) + 1
	if n := res.Rate[0].Count(); n != want {
		t.Fatalf("Rate[0] counts %d updates, want %d (t = %v through %v)", n, want, warmup, horizon)
	}
}

// TestIdleRunQueueStats: a silent source whose control never fires
// leaves no event after warmup, and the queue statistic is its
// constant empty queue over the whole [warmup, horizon] window rather
// than the NaN of empty moments.
func TestIdleRunQueueStats(t *testing.T) {
	cfg := Config{Mu: 30, Sources: []SourceConfig{{Law: frozenLaw, Interval: 1e308}}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const horizon, warmup = 20.0, 5.0
	res, err := s.Run(horizon, warmup)
	if err != nil {
		t.Fatal(err)
	}
	q := res.QueueStats
	if q.TotalWeight() != horizon-warmup || q.Mean() != 0 || q.StdDev() != 0 {
		t.Errorf("queue weight %v mean %v std %v, want %v, 0, 0", q.TotalWeight(), q.Mean(), q.StdDev(), horizon-warmup)
	}
	if n := res.Rate[0].Count(); n != 0 {
		t.Errorf("Rate[0] counts %d updates from a control that never fires", n)
	}
}

// TestZeroRateSourceRecovers: a source whose rate hits the floor at 0
// with MinRate > 0 keeps probing and eventually sends again.
func TestZeroRateSourceRecovers(t *testing.T) {
	cfg := Config{
		Mu:   30,
		Seed: 17,
		Sources: []SourceConfig{
			{Law: control.AIMD{C0: 10, C1: 5, QHat: 5}, Interval: 0.05, Lambda0: 0, MinRate: 0.5},
		},
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(500, 50)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered[0] == 0 {
		t.Fatal("source starting at zero rate never delivered a packet")
	}
}

func BenchmarkSimSingleSource(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := Config{
			Mu:   50,
			Seed: 1,
			Sources: []SourceConfig{
				{Law: control.AIMD{C0: 20, C1: 2, QHat: 15}, Interval: 0.05, Lambda0: 5, MinRate: 1},
			},
		}
		s, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(200, 20); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimFourSources(b *testing.B) {
	law := control.AIMD{C0: 10, C1: 2, QHat: 12}
	for i := 0; i < b.N; i++ {
		srcs := make([]SourceConfig, 4)
		for j := range srcs {
			srcs[j] = SourceConfig{Law: law, Interval: 0.05, Delay: 0.1 * float64(j), Lambda0: 5, MinRate: 0.5}
		}
		s, err := New(Config{Mu: 60, Seed: 1, Sources: srcs})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(100, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// stochasticConfig is a stochastic two-source scenario exercising every
// event kind: finite buffer (drops), burst modulation (mod switches),
// tracing and delayed feedback.
func stochasticConfig(t *testing.T) Config {
	t.Helper()
	law := control.AIMD{C0: 2, C1: 0.5, QHat: 6}
	onOff, err := traffic.NewOnOff(0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Mu:   11,
		Seed: 424242,
		Sources: []SourceConfig{
			{Law: law, Delay: 0.3, Interval: 0.25, Lambda0: 6, MinRate: 0.1},
			{Law: law, Delay: 0.1, Interval: 0.25, Lambda0: 4, MinRate: 0.1, Burst: onOff},
		},
		Buffer:      12,
		SampleEvery: 0.05,
	}
}

// TestOwnerArenaStaysCompact pins the departure-side owner FIFO to the
// sliding-head arena contract: after a long run the dead prefix must
// be bounded (compaction keeps the head below half the backing array),
// and the live window length must equal the queue.
func TestOwnerArenaStaysCompact(t *testing.T) {
	s, err := New(stochasticConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(20, 1); err != nil {
		t.Fatal(err)
	}
	if s.owners.Len() != s.queue {
		t.Fatalf("owner window %d != queue %d", s.owners.Len(), s.queue)
	}
	if s.owners.head > 64 && s.owners.head > len(s.owners.buf)/2 {
		t.Fatalf("arena head %d not compacted (len %d)", s.owners.head, len(s.owners.buf))
	}
}
