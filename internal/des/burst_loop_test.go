package des

import (
	"reflect"
	"testing"

	"fpcc/internal/control"
	"fpcc/internal/traffic"
)

// burstTestConfig is a stochastic two-source scenario exercising every
// event kind: finite buffer (drops), burst modulation (mod switches),
// tracing and delayed feedback.
func burstTestConfig(t *testing.T) Config {
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

// TestBurstLoopMatchesScalar pins the burst event loop (PopBatch +
// per-burst sampling/statistics hoisting) byte-identical to the
// one-event-at-a-time scalar reference on the same seed: every traced
// sample, rate update, counter and the time-weighted queue moments
// must agree exactly.
func TestBurstLoopMatchesScalar(t *testing.T) {
	run := func(scalar bool, inject bool) *Result {
		t.Helper()
		s, err := New(burstTestConfig(t))
		if err != nil {
			t.Fatal(err)
		}
		s.scalarLoop = scalar
		if inject {
			// Force genuine multi-event bursts: extra same-timestamp
			// control updates for both sources at several instants.
			// Both runs push them in the same order, so the sequence
			// numbers — and therefore the processing order — match.
			for _, at := range []float64{2, 2.5, 3} {
				for src := range s.sources {
					s.push(event{t: at, kind: evControl, src: src})
				}
			}
		}
		res, err := s.Run(8, 1)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, inject := range []bool{false, true} {
		ref := run(true, inject)
		got := run(false, inject)
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("inject=%v: burst loop result differs from scalar reference:\nscalar: %+v\nburst:  %+v", inject, ref, got)
		}
	}
}

// TestOwnerArenaStaysCompact pins the departure-side owner FIFO to the
// sliding-head arena contract: after a long run the dead prefix must
// be bounded (compaction keeps the head below half the backing array),
// and the live window length must equal the queue.
func TestOwnerArenaStaysCompact(t *testing.T) {
	s, err := New(burstTestConfig(t))
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
