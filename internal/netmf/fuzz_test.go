package netmf

import (
	"fmt"
	"math"
	"testing"

	"fpcc/internal/control"
	"fpcc/internal/netsim"
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

// float reads 8 bytes, big-endian, as the bits of a float64, so every
// value (NaN, ±Inf, subnormals) is reachable.
func (in *fuzzInput) float() float64 {
	var u uint64
	for range 8 {
		u = u<<8 | uint64(in.byte())
	}
	return math.Float64frombits(u)
}

// decodeConfig builds a chain of 1–4 nodes (links hop i -> hop i+1)
// and 1–4 AIMD classes routed along it. Layout: node count, class
// count, LMax, Bins, Dt, a flag byte (bit 0 SecondOrder, bit 1 Q0
// present), then per node μ (and Q0), then per class the first hop
// (signed), the route length (0–4), N (signed 16-bit), Weight, Delay,
// Lambda0, InitStd, SigmaL and the AIMD target per source.
func decodeConfig(data []byte) Config {
	in := fuzzInput(data)
	nodes, classes := 1+int(in.byte()%4), 1+int(in.byte()%4)
	cfg := Config{LMax: in.float(), Bins: int(in.byte()), Dt: in.float()}
	flags := in.byte()
	cfg.SecondOrder = flags&1 != 0
	if flags&2 != 0 {
		cfg.Q0 = make([]float64, nodes)
	}
	for j := range nodes {
		cfg.Topology.Nodes = append(cfg.Topology.Nodes, netsim.Node{Name: fmt.Sprintf("hop%d", j), Mu: in.float()})
		if j > 0 {
			cfg.Topology.Links = append(cfg.Topology.Links, netsim.Link{From: j - 1, To: j})
		}
		if cfg.Q0 != nil {
			cfg.Q0[j] = in.float()
		}
	}
	for range classes {
		first, hops := int(int8(in.byte())), int(in.byte()%5)
		var route []int
		for h := range hops {
			route = append(route, first+h)
		}
		n := int(int16(uint16(in.byte())<<8 | uint16(in.byte())))
		cl := Class{N: n, Route: route, Weight: in.float(), Delay: in.float(),
			Lambda0: in.float(), InitStd: in.float(), SigmaL: in.float()}
		cl.Law = control.AIMD{C0: 0.5, C1: 0.5, QHat: float64(in.byte()) / 16 * float64(n)}
		cfg.Classes = append(cfg.Classes, cl)
	}
	return cfg
}

// FuzzConfig holds the networked engine to its config contract: a
// config Validate rejects makes New return an error (never panic),
// and one it accepts runs 200 steps in which every step either
// returns an error or leaves every queue and class mean finite.
func FuzzConfig(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := decodeConfig(data)
		if err := cfg.Validate(); err != nil {
			if _, nerr := New(cfg); nerr == nil {
				t.Fatalf("New accepted a config Validate rejects (%v)", err)
			}
			return
		}
		e, err := New(cfg)
		if err != nil {
			t.Fatalf("New rejected a config Validate accepts: %v", err)
		}
		for step := range 200 {
			if e.Step() != nil {
				return
			}
			for j := range e.NumNodes() {
				if q := e.Queue(j); math.IsNaN(q) || math.IsInf(q, 0) {
					t.Fatalf("step %d: node %d queue %v", step, j, q)
				}
			}
			for k := range e.NumClasses() {
				if m := e.ClassMeanRate(k); math.IsNaN(m) || math.IsInf(m, 0) {
					t.Fatalf("step %d: class %d mean rate %v", step, k, m)
				}
			}
		}
	})
}
