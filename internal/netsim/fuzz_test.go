package netsim

import (
	"math"
	"testing"

	"fpcc/internal/control"
	"fpcc/internal/des"
)

// fuzzInput decodes a fuzz input field by field; past its end every
// field reads as zero.
type fuzzInput []byte

func (in *fuzzInput) byte() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

// value decodes one byte as a config number: 255 is NaN, 254 +Inf,
// 253 −1, 252 (when huge) 1e308, and any other b is b·scale. The
// ordinary values are multiples of scale, so no drawn rate, period or
// delay is small enough to make a run take more than milliseconds,
// while every non-finite and overflowing value stays reachable.
func (in *fuzzInput) value(scale float64, huge bool) float64 {
	switch b := in.byte(); {
	case b == 255:
		return math.NaN()
	case b == 254:
		return math.Inf(1)
	case b == 253:
		return -1
	case b == 252 && huge:
		return 1e308
	default:
		return float64(b) * scale
	}
}

func (in *fuzzInput) delay() float64 { return in.value(1.0/16, true) }
func (in *fuzzInput) rate() float64  { return in.value(0.25, false) }

// decodeConfig builds a config of 1–4 nodes, 0–5 links and 1–3 AIMD
// flows. Layout: node count, link count, flow count, seed, sample
// period; per node μ, buffer (signed, mod 32) and gateway (mod 3:
// none, EWMA, RED); per link both ends (mod nodes+1, so a link may
// leave the graph) and delay; per flow the route length (mod 5) and
// hops (mod nodes+1), ingress, return and feedback delays, control
// interval, Lambda0, MinRate and the AIMD target.
func decodeConfig(data []byte) Config {
	in := fuzzInput(data)
	nodes, links, flows := 1+int(in.byte()%4), int(in.byte()%6), 1+int(in.byte()%3)
	cfg := Config{Seed: uint64(in.byte()), SampleEvery: in.value(0.125, false)}
	for range nodes {
		n := Node{Mu: in.value(0.5, true), Buffer: int(int8(in.byte())) % 32}
		switch in.byte() % 3 {
		case 1:
			n.Gateway, _ = des.NewEWMAGateway(1)
		case 2:
			n.Gateway, _ = des.NewREDGateway(5, 25, 0.3, 0.5)
		}
		cfg.Nodes = append(cfg.Nodes, n)
	}
	for range links {
		from, to := int(in.byte())%(nodes+1), int(in.byte())%(nodes+1)
		cfg.Links = append(cfg.Links, Link{From: from, To: to, Delay: in.delay()})
	}
	for range flows {
		var route []int
		for range in.byte() % 5 {
			route = append(route, int(in.byte())%(nodes+1))
		}
		f := Flow{Route: route, IngressDelay: in.delay(), ReturnDelay: in.delay(), FeedbackDelay: in.delay()}
		f.Interval = in.value(1.0/16, true)
		f.Lambda0, f.MinRate = in.rate(), in.rate()
		f.Law = control.AIMD{C0: 2, C1: 0.5, QHat: float64(in.byte() % 32)}
		cfg.Flows = append(cfg.Flows, f)
	}
	return cfg
}

// FuzzConfig holds the packet simulator to its config contract: a
// config Validate rejects makes New return an error (never panic),
// and one it accepts runs a 20 s horizon to a Result whose every
// number is finite (queue moments only where they accrued weight).
func FuzzConfig(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := decodeConfig(data)
		if err := cfg.Validate(); err != nil {
			if _, nerr := New(cfg); nerr == nil {
				t.Fatalf("New accepted a config Validate rejects (%v)", err)
			}
			return
		}
		sim, err := New(cfg)
		if err != nil {
			t.Fatalf("New rejected a config Validate accepts: %v", err)
		}
		res, err := sim.Run(20, 5)
		if err != nil {
			t.Fatalf("Run failed on a valid config: %v", err)
		}
		finite := func(what string, vs ...float64) {
			for i, v := range vs {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s[%d] = %v", what, i, v)
				}
			}
		}
		finite("Throughput", res.Throughput...)
		finite("FlowRTT", res.FlowRTT...)
		finite("TraceT", res.TraceT...)
		// A node whose queue never changes after warmup accrues no
		// weight (the tail after the last event is excluded, as in
		// des), and empty moments read NaN by the stats convention.
		for _, q := range res.NodeQueue {
			finite("NodeQueue weight", q.TotalWeight())
			if q.TotalWeight() > 0 {
				finite("NodeQueue mean/std", q.Mean(), q.StdDev())
			}
		}
		for _, tq := range res.TraceQ {
			finite("TraceQ", tq...)
		}
		for i := range res.RateL {
			finite("RateT", res.RateT[i]...)
			finite("RateL", res.RateL[i]...)
		}
	})
}
