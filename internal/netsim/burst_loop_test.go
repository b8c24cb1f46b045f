package netsim

import (
	"reflect"
	"testing"

	"fpcc/internal/control"
)

// TestBurstLoopMatchesScalar pins the burst event loop (PopBatch,
// per-node arena queues) byte-identical to
// the one-event-at-a-time scalar reference on the same seed, on a
// 2-hop parking lot with a finite buffer. The injected variant forces
// genuine multi-event bursts through same-timestamp control updates.
func TestBurstLoopMatchesScalar(t *testing.T) {
	cfg := func() Config {
		law := control.AIMD{C0: 3, C1: 0.5, QHat: 8}
		return Config{
			Nodes: []Node{{Mu: 30, Buffer: 20}, {Mu: 30, Buffer: 20}},
			Links: []Link{{From: 0, To: 1, Delay: 0.02}},
			Flows: []Flow{
				{Route: []int{0, 1}, Law: law, Lambda0: 8, FeedbackDelay: 0.1, Interval: 0.08, MinRate: 0.1},
				{Route: []int{0}, Law: law, Lambda0: 8, FeedbackDelay: 0.05, Interval: 0.08, MinRate: 0.1},
				{Route: []int{1}, Law: law, Lambda0: 8, FeedbackDelay: 0.05, Interval: 0.08, MinRate: 0.1},
			},
			Seed: 7,
		}
	}
	run := func(scalar, inject bool) *Result {
		t.Helper()
		s, err := New(cfg())
		if err != nil {
			t.Fatal(err)
		}
		s.scalarLoop = scalar
		if inject {
			for _, at := range []float64{3, 4.5} {
				for f := range s.flows {
					s.push(event{t: at, kind: evControl, flow: f})
				}
			}
		}
		res, err := s.Run(10, 2)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, inject := range []bool{false, true} {
		ref := run(true, inject)
		got := run(false, inject)
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("inject=%v: burst loop result differs from scalar reference", inject)
		}
	}
}
