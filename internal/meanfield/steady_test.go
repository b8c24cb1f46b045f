package meanfield

import (
	"math"
	"testing"
)

// lattice is a stub Stepper on an exact binary-fraction time lattice,
// so steps land on the warmup boundary with no floating-point fuzz:
// the queue equals the step count and the single class rate is
// constant.
type lattice struct {
	dt    float64
	t     float64
	steps int
}

func (l *lattice) Step() error               { l.steps++; l.t = float64(l.steps) * l.dt; return nil }
func (l *lattice) Time() float64             { return l.t }
func (l *lattice) Queue() float64            { return float64(l.steps) }
func (l *lattice) NumClasses() int           { return 1 }
func (l *lattice) ClassMeanRate(int) float64 { return 2.5 }

// TestSteadyStatsWindowIncludesBoundaryStep pins the measurement
// window [warm, horizon] sample by sample: with Dt = 0.25, warm = 1
// and horizon = 2, the sampled steps are exactly those ending at
// 1.00, 1.25, 1.50, 1.75 and 2.00 — five samples, INCLUDING the one
// landing exactly on the warmup boundary (the pre-fix window test
// `Time() > warm` silently dropped it).
func TestSteadyStatsWindowIncludesBoundaryStep(t *testing.T) {
	l := &lattice{dt: 0.25}
	meanQ, rates, err := SteadyStats(l, 1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if l.steps != 8 {
		t.Errorf("ran %d steps, want 8 (horizon 2 at Dt 0.25)", l.steps)
	}
	// Queue is the step counter, so the sampled values are 4..8: their
	// mean pins both the sample count (5) and the boundary inclusion
	// (a 4-sample window averaging 5..8 would give 6.5).
	if want := (4 + 5 + 6 + 7 + 8) / 5.0; meanQ != want {
		t.Errorf("meanQ = %v, want %v (5 samples including the t=warm step)", meanQ, want)
	}
	if len(rates) != 1 || rates[0] != 2.5 {
		t.Errorf("rates = %v, want [2.5]", rates)
	}
}

// TestSteadyStatsOnStepRunsDuringWarmup pins the onStep contract: the
// callback fires after every step, warmup included.
func TestSteadyStatsOnStepRunsDuringWarmup(t *testing.T) {
	l := &lattice{dt: 0.25}
	var calls int
	if _, _, err := SteadyStats(l, 1, 2, func() { calls++ }); err != nil {
		t.Fatal(err)
	}
	if calls != 8 {
		t.Errorf("onStep ran %d times, want 8 (every step, warmup included)", calls)
	}
}

// TestSteadyStatsRejectsEmptyWindow covers the inverted-window error
// path. (The "no steps in window" guard is defensive: the final step
// always lands at or past the horizon, hence inside [warm, horizon]'s
// closure, so any time-advancing Stepper yields at least one sample.)
func TestSteadyStatsRejectsEmptyWindow(t *testing.T) {
	if _, _, err := SteadyStats(&lattice{dt: 0.25}, 2, 2, nil); err == nil {
		t.Error("accepted horizon == warm")
	}
	if _, _, err := SteadyStats(&lattice{dt: 0.25}, math.Inf(1), 2, nil); err == nil {
		t.Error("accepted warm > horizon")
	}
}

// TestNodeSteadyStatsAllocatesNothingPerStep pins the window loop's
// allocation budget on a two-node Engine: a 400-step window allocates
// exactly what a 40-step one does (its result slices and queue
// reader), so nothing is allocated per step. The engine first runs
// past its histories' first prune, after which stepping reuses their
// buffers.
func TestNodeSteadyStatsAllocatesNothingPerStep(t *testing.T) {
	cfg := testConfig(1000)
	cfg.Bins, cfg.Workers = 16, 1
	cfg.Classes = []Class{cfg.Classes[0], cfg.Classes[0]}
	cfg.Classes[0].Route = []int{0, 1}
	cfg.Classes[1].Route = []int{1}
	e, err := NewEngine(cfg, Network{Nodes: []string{"a", "b"}, Mu: []float64{1000, 1500}})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(100); err != nil {
		t.Fatal(err)
	}
	window := func(steps int) float64 {
		return testing.AllocsPerRun(3, func() {
			start := e.Time()
			if _, _, err := NodeSteadyStats(e, start, start+float64(steps)*cfg.Dt, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := window(40), window(400); long != short {
		t.Errorf("a 400-step window allocates %v times, a 40-step one %v: the loop allocates per step", long, short)
	}
}
