package des

import (
	"math"
	"testing"
)

func tahoeBase() TahoeConfig {
	return TahoeConfig{
		Mu:     100,
		Buffer: 20,
		Seed:   13,
		Flows: []TahoeFlowConfig{
			{PropDelay: 0.05, RTO: 1},
		},
	}
}

func TestTahoeConfigValidation(t *testing.T) {
	mod := func(f func(*TahoeConfig)) TahoeConfig {
		c := tahoeBase()
		f(&c)
		return c
	}
	cases := []struct {
		name string
		cfg  TahoeConfig
	}{
		{"zero mu", mod(func(c *TahoeConfig) { c.Mu = 0 })},
		{"tiny buffer", mod(func(c *TahoeConfig) { c.Buffer = 1 })},
		{"no flows", mod(func(c *TahoeConfig) { c.Flows = nil })},
		{"zero delay", mod(func(c *TahoeConfig) { c.Flows[0].PropDelay = 0 })},
		{"rto below rtt", mod(func(c *TahoeConfig) { c.Flows[0].RTO = 0.05 })},
		{"negative sampling", mod(func(c *TahoeConfig) { c.SampleEvery = -1 })},
		// A NaN period silently disabled the trace.
		{"nan sampling", mod(func(c *TahoeConfig) { c.SampleEvery = math.NaN() })},
		{"inf sampling", mod(func(c *TahoeConfig) { c.SampleEvery = math.Inf(1) })},
		// An infinite RTO never fires, so a drop was never recovered.
		{"inf rto", mod(func(c *TahoeConfig) { c.Flows[0].RTO = math.Inf(1) })},
		{"nan rto", mod(func(c *TahoeConfig) { c.Flows[0].RTO = math.NaN() })},
	}
	for _, tc := range cases {
		if err := tc.cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted", tc.name)
		}
		if _, err := NewTahoe(tc.cfg); err == nil {
			t.Errorf("%s: NewTahoe accepted", tc.name)
		}
	}
}

func TestTahoeRunValidation(t *testing.T) {
	checkRunWindows(t, func(horizon, warmup float64) error {
		sim, err := NewTahoe(tahoeBase())
		if err != nil {
			t.Fatal(err)
		}
		_, err = sim.Run(horizon, warmup)
		return err
	})
}

func TestTahoeSingleFlowFillsPipe(t *testing.T) {
	// One flow, ample buffer: TCP should keep the bottleneck busy.
	// The RTT is ≈ 0.1s, bandwidth-delay product ≈ 10 packets, buffer
	// 20 — utilization well above 60% even through Tahoe's cwnd=1
	// recoveries.
	cfg := tahoeBase()
	cfg.SampleEvery = 0.1
	sim, err := NewTahoe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(300, 50)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput[0] < 60 || res.Throughput[0] > 100.5 {
		t.Errorf("throughput %v, want within (60, 100.5)", res.Throughput[0])
	}
	if res.Drops[0] == 0 {
		t.Error("no drops: the probe never found the buffer limit")
	}
	if len(res.TraceT) == 0 || len(res.TraceW[0]) != len(res.TraceT) {
		t.Error("trace missing or misaligned")
	}
	if res.MeanRTT[0] <= 0.1 {
		t.Errorf("mean RTT %v must exceed the unloaded 0.1s", res.MeanRTT[0])
	}
}

func TestTahoeSawtoothVisibleInTrace(t *testing.T) {
	// The cwnd trace must repeatedly collapse (Tahoe resets to 1) and
	// regrow — the sawtooth of Figure 1's real-world counterpart.
	cfg := tahoeBase()
	cfg.SampleEvery = 0.05
	sim, err := NewTahoe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(200, 0)
	if err != nil {
		t.Fatal(err)
	}
	w := res.TraceW[0]
	collapses := 0
	peak := 0.0
	for i := 1; i < len(w); i++ {
		if w[i] > peak {
			peak = w[i]
		}
		if w[i-1]-w[i] > 3 { // a drop of >3 packets in one sample step
			collapses++
		}
	}
	if collapses < 3 {
		t.Errorf("cwnd collapsed only %d times; sawtooth absent", collapses)
	}
	if peak < 10 {
		t.Errorf("cwnd peak %v never reached the pipe size", peak)
	}
}

func TestTahoeSlowStartDoublesBeforeLoss(t *testing.T) {
	// With a huge buffer and short run, the first slow start grows the
	// window exponentially: cwnd should exceed 16 within ~5 RTTs.
	cfg := tahoeBase()
	cfg.Buffer = 10000
	cfg.SampleEvery = 0.01
	sim, err := NewTahoe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(0.6, 0)
	if err != nil {
		t.Fatal(err)
	}
	w := res.TraceW[0]
	if len(w) == 0 {
		t.Fatal("no cwnd samples")
	}
	final := w[len(w)-1]
	if final < 16 {
		t.Errorf("cwnd after ~5 RTTs of slow start = %v, want ≥ 16", final)
	}
}

func TestTahoeRTTUnfairness(t *testing.T) {
	// Two flows sharing the bottleneck, one with 4× the propagation
	// delay: the short flow must obtain a clearly larger share —
	// Jacobson's measurement, Zhang's simulation, and the unfairness
	// the paper traces to feedback delay.
	cfg := TahoeConfig{
		Mu:     100,
		Buffer: 25,
		Seed:   29,
		Flows: []TahoeFlowConfig{
			{PropDelay: 0.025, RTO: 0.8},
			{PropDelay: 0.1, RTO: 1.6},
		},
	}
	sim, err := NewTahoe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(600, 100)
	if err != nil {
		t.Fatal(err)
	}
	short, long := res.Throughput[0], res.Throughput[1]
	if short <= 1.2*long {
		t.Errorf("short-RTT flow %v not clearly ahead of long-RTT flow %v", short, long)
	}
	total := short + long
	if total < 60 || total > 100.5 {
		t.Errorf("aggregate throughput %v outside (60, 100.5)", total)
	}
}

func TestTahoeEqualFlowsRoughlyFair(t *testing.T) {
	// Identical flows must split the link near 50/50 over a long run.
	cfg := TahoeConfig{
		Mu:     100,
		Buffer: 25,
		Seed:   5,
		Flows: []TahoeFlowConfig{
			{PropDelay: 0.05, RTO: 1},
			{PropDelay: 0.05, RTO: 1},
		},
	}
	sim, err := NewTahoe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(800, 200)
	if err != nil {
		t.Fatal(err)
	}
	a, b := res.Throughput[0], res.Throughput[1]
	ratio := a / b
	if ratio < 0.6 || ratio > 1.67 {
		t.Errorf("equal flows split %v:%v (ratio %v), want near 1", a, b, ratio)
	}
}

func TestTahoeQueueBoundedByBuffer(t *testing.T) {
	cfg := tahoeBase()
	cfg.SampleEvery = 0.02
	sim, err := NewTahoe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(100, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range res.TraceQ {
		if q > float64(cfg.Buffer) {
			t.Fatalf("queue sample %d = %v exceeds buffer %d", i, q, cfg.Buffer)
		}
	}
	if res.QueueStats.Mean() <= 0 {
		t.Error("queue never occupied")
	}
}
