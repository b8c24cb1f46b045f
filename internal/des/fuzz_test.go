package des

import (
	"fmt"
	"math"
	"testing"

	"fpcc/internal/control"
	"fpcc/internal/obs"
	"fpcc/internal/traffic"
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

func (in *fuzzInput) period() float64 { return in.value(1.0/16, true) }
func (in *fuzzInput) rate() float64   { return in.value(0.25, false) }

// decodeConfig builds a config of 1–3 AIMD sources. Layout: source
// count, seed, μ, buffer (signed, mod 32), gateway (mod 3: none, EWMA,
// RED), sample period; per source the AIMD target (mod 32), feedback
// delay, control interval, Lambda0, MinRate and a flags byte whose
// bit 0 selects implicit loss feedback and bit 1 an on/off burst,
// whose mean on and off sojourns follow. A burst the traffic package
// rejects is left off: its sojourns are not the engine's config.
func decodeConfig(data []byte) Config {
	in := fuzzInput(data)
	sources := 1 + int(in.byte()%3)
	cfg := Config{Seed: uint64(in.byte()), Mu: in.value(0.5, true), Buffer: int(int8(in.byte())) % 32}
	switch in.byte() % 3 {
	case 1:
		cfg.Gateway, _ = NewEWMAGateway(1)
	case 2:
		cfg.Gateway, _ = NewREDGateway(5, 25, 0.3, 0.5)
	}
	cfg.SampleEvery = in.value(0.125, false)
	for range sources {
		s := SourceConfig{Law: control.AIMD{C0: 2, C1: 0.5, QHat: float64(in.byte() % 32)}}
		s.Delay, s.Interval = in.period(), in.period()
		s.Lambda0, s.MinRate = in.rate(), in.rate()
		flags := in.byte()
		s.ImplicitLoss = flags&1 != 0
		if flags&2 != 0 {
			if b, err := traffic.NewOnOff(in.rate(), in.rate()); err == nil {
				s.Burst = b
			}
		}
		cfg.Sources = append(cfg.Sources, s)
	}
	return cfg
}

// FuzzConfig holds the packet simulator to its config contract: a
// config Validate rejects makes New return an error (never panic),
// and one it accepts runs a 20 s horizon with invariants on to a
// Result whose every number is finite: the queue moments, and the rate
// moments of every source with a control update after warmup.
func FuzzConfig(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := decodeConfig(data)
		if err := cfg.Validate(); err != nil {
			if _, nerr := New(cfg); nerr == nil {
				t.Fatalf("New accepted a config Validate rejects (%v)", err)
			}
			return
		}
		cfg.Obs = (&obs.Config{Invariants: true}).Recorder("des")
		sim, err := New(cfg)
		if err != nil {
			t.Fatalf("New rejected a config Validate accepts: %v", err)
		}
		res, err := sim.Run(20, 5)
		if err != nil {
			t.Fatalf("Run failed on a valid config: %v", err)
		}
		finite(t, "Throughput", res.Throughput...)
		finite(t, "TraceQ", res.TraceQ...)
		q := res.QueueStats
		finite(t, "QueueStats weight/mean/std", q.TotalWeight(), q.Mean(), q.StdDev())
		for i, r := range res.Rate {
			if r.Count() > 0 {
				finite(t, fmt.Sprintf("Rate[%d] mean/std/min/max", i), r.Mean(), r.StdDev(), r.Min(), r.Max())
			}
		}
	})
}

// decodeTahoe builds a Tahoe config of 1–3 flows. Layout: flow count,
// seed, μ, buffer (signed, mod 32), sample period; per flow the
// propagation delay and the RTO.
func decodeTahoe(data []byte) TahoeConfig {
	in := fuzzInput(data)
	flows := 1 + int(in.byte()%3)
	cfg := TahoeConfig{Seed: uint64(in.byte()), Mu: in.value(0.5, true), Buffer: int(int8(in.byte())) % 32}
	cfg.SampleEvery = in.value(0.125, false)
	for range flows {
		cfg.Flows = append(cfg.Flows, TahoeFlowConfig{PropDelay: in.period(), RTO: in.period()})
	}
	return cfg
}

// FuzzTahoeConfig holds the Tahoe simulator to its config contract: a
// config Validate rejects makes NewTahoe fail, and one it accepts runs
// a 20 s horizon to finite throughput, queue moments, RTTs and traces,
// ending with as many packets in the FIFO as the queue counter says.
func FuzzTahoeConfig(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := decodeTahoe(data)
		if err := cfg.Validate(); err != nil {
			if _, nerr := NewTahoe(cfg); nerr == nil {
				t.Fatalf("NewTahoe accepted a config Validate rejects (%v)", err)
			}
			return
		}
		sim, err := NewTahoe(cfg)
		if err != nil {
			t.Fatalf("NewTahoe rejected a config Validate accepts: %v", err)
		}
		res, err := sim.Run(20, 5)
		if err != nil {
			t.Fatalf("Run failed on a valid config: %v", err)
		}
		finite(t, "Throughput", res.Throughput...)
		finite(t, "MeanRTT", res.MeanRTT...)
		finite(t, "TraceQ", res.TraceQ...)
		for i, w := range res.TraceW {
			finite(t, fmt.Sprintf("TraceW[%d]", i), w...)
		}
		q := res.QueueStats
		finite(t, "QueueStats weight/mean/std", q.TotalWeight(), q.Mean(), q.StdDev())
		if cfg.SampleEvery != 0 && len(res.TraceT) == 0 {
			t.Fatalf("sample period %v recorded no trace", cfg.SampleEvery)
		}
		if sim.fifo.Len() != sim.queue {
			t.Fatalf("FIFO holds %d packets, queue counter %d", sim.fifo.Len(), sim.queue)
		}
	})
}

// decodeTandem builds a tandem config of 1–3 hops and 1–3 AIMD
// sources. Layout: hop count, source count, seed, propagation delay;
// per hop μ; per source the path length (mod 4, so an empty path is
// reachable) and hops (mod hops+1, so an out-of-range hop is),
// Lambda0, MinRate and the AIMD target.
func decodeTandem(data []byte) TandemConfig {
	in := fuzzInput(data)
	hops, sources := 1+int(in.byte()%3), 1+int(in.byte()%3)
	cfg := TandemConfig{Seed: uint64(in.byte()), PropDelay: in.period()}
	for range hops {
		cfg.Mus = append(cfg.Mus, in.value(0.5, true))
	}
	for range sources {
		var path []int
		for range in.byte() % 4 {
			path = append(path, int(in.byte())%(hops+1))
		}
		s := TandemSource{Path: path, Lambda0: in.rate(), MinRate: in.rate()}
		s.Law = control.AIMD{C0: 2, C1: 0.5, QHat: float64(in.byte() % 32)}
		cfg.Sources = append(cfg.Sources, s)
	}
	return cfg
}

// FuzzTandemConfig holds the tandem simulator to its config contract:
// a config Validate rejects makes NewTandem fail, and one it accepts
// runs a 20 s horizon to finite throughput, backlogs and RTTs, ending
// with each hop's FIFO as long as the last length its history
// recorded.
func FuzzTandemConfig(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := decodeTandem(data)
		if err := cfg.Validate(); err != nil {
			if _, nerr := NewTandem(cfg); nerr == nil {
				t.Fatalf("NewTandem accepted a config Validate rejects (%v)", err)
			}
			return
		}
		sim, err := NewTandem(cfg)
		if err != nil {
			t.Fatalf("NewTandem rejected a config Validate accepts: %v", err)
		}
		res, err := sim.Run(20, 5)
		if err != nil {
			t.Fatalf("Run failed on a valid config: %v", err)
		}
		finite(t, "Throughput", res.Throughput...)
		finite(t, "MeanBacklog", res.MeanBacklog...)
		for i := range cfg.Sources {
			finite(t, fmt.Sprintf("RTT(%d)", i), sim.RTT(i))
		}
		for h := range sim.hops {
			hs := &sim.hops[h]
			if got := hs.hist.Latest(math.Inf(1)); got != hs.queue.Len() {
				t.Fatalf("hop %d: FIFO holds %d packets, history last recorded %d", h, hs.queue.Len(), got)
			}
		}
	})
}

// finite fails t on the first NaN or infinite value of vs.
func finite(t *testing.T, what string, vs ...float64) {
	t.Helper()
	for i, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%s[%d] = %v", what, i, v)
		}
	}
}
