package characteristics

import (
	"math"
	"testing"

	"fpcc/internal/control"
	"fpcc/internal/fluid"
)

func TestTraceExactDelayedValidation(t *testing.T) {
	for _, c := range badInputs() {
		if _, err := TraceExactDelayed(c.law, c.mu, c.tau, c.p0, c.horizon, 100); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	law := control.AIMD{C0: 2, C1: 0.8, QHat: 20}
	if _, err := TraceExactDelayed(law, 10, 1, Point{}, 10, 0); err == nil {
		t.Error("accepted zero segments")
	}
}

// TestDelayedZeroTauMatchesUndelayed: with τ = 0 the delayed tracer
// must reproduce the undelayed exact path.
func TestDelayedZeroTauMatchesUndelayed(t *testing.T) {
	law := control.AIMD{C0: 2, C1: 0.8, QHat: 20}
	const mu = 10.0
	p0 := Point{Q: 0, Lambda: 2}
	und, err := TraceExact(law, mu, p0, 60, 10000)
	if err != nil {
		t.Fatal(err)
	}
	del, err := TraceExactDelayed(law, mu, 0, p0, 60, 10000)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []float64{1, 5, 10, 20, 40, 59} {
		a := und.At(tt)
		b := del.At(tt)
		if math.Abs(a.Q-b.Q) > 1e-6 || math.Abs(a.Lambda-b.Lambda) > 1e-6 {
			t.Fatalf("t=%v: undelayed %+v vs delayed(τ=0) %+v", tt, a, b)
		}
	}
}

// TestDelayedLimitCycle: positive delay produces a persistent cycle
// whose successive amplitudes stabilize (a limit cycle, not a
// divergence), per Section 7.
func TestDelayedLimitCycle(t *testing.T) {
	law := control.AIMD{C0: 2, C1: 0.8, QHat: 20}
	const mu = 10.0
	path, err := TraceExactDelayed(law, mu, 2.0, Point{Q: 0, Lambda: 2}, 800, 200000)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := path.Cycle()
	if !ok {
		t.Fatal("no cycle established")
	}
	if m.AmplitudeQ < 5 {
		t.Fatalf("cycle queue amplitude %v, want sustained oscillation", m.AmplitudeQ)
	}
	if !(m.Period > 0) {
		t.Fatalf("cycle period %v", m.Period)
	}
	// Late peaks must have stabilized (limit cycle, not growth). λ
	// peaks where the increase branch hands over to the decrease
	// branch, at the start of a decrease arc.
	var peaks []float64
	for i := 1; i < len(path.Segments); i++ {
		inc := path.Segments[i-1].Kind == SegIncrease || path.Segments[i-1].Kind == SegBoundary
		if sg := path.Segments[i]; inc && (sg.Kind == SegDecrease || sg.Kind == SegDrained) {
			peaks = append(peaks, sg.Start.Lambda)
		}
	}
	n := len(peaks)
	if n < 5 {
		t.Fatalf("only %d peaks", n)
	}
	p1, p2 := peaks[n-2], peaks[n-1]
	if math.Abs(p2-p1)/p1 > 0.02 {
		t.Fatalf("late peaks %v -> %v still moving", p1, p2)
	}
}

// TestDelayedAmplitudeGrowsWithTau: the cycle amplitude must increase
// with the feedback delay (E6's shape, here to machine precision).
func TestDelayedAmplitudeGrowsWithTau(t *testing.T) {
	law := control.AIMD{C0: 2, C1: 0.8, QHat: 20}
	const mu = 10.0
	var prev float64
	for i, tau := range []float64{0.5, 1, 2, 4} {
		path, err := TraceExactDelayed(law, mu, tau, Point{Q: 0, Lambda: 2}, 1000, 200000)
		if err != nil {
			t.Fatal(err)
		}
		m, ok := path.Cycle()
		if !ok {
			t.Fatalf("τ=%v: no cycle", tau)
		}
		if i > 0 && m.AmplitudeQ <= prev {
			t.Fatalf("amplitude not increasing: τ=%v gives %v after %v", tau, m.AmplitudeQ, prev)
		}
		prev = m.AmplitudeQ
	}
}

// TestDelayedMatchesDDE: the exact tracer and the numeric DDE (fluid
// package) must agree on the limit-cycle swing.
func TestDelayedMatchesDDE(t *testing.T) {
	law := control.AIMD{C0: 2, C1: 0.8, QHat: 20}
	const mu = 10.0
	const tau = 2.0
	path, err := TraceExactDelayed(law, mu, tau, Point{Q: 0, Lambda: 2}, 800, 200000)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := path.Cycle()
	if !ok {
		t.Fatal("no cycle from exact tracer")
	}
	fm := fluid.Model{Mu: mu, Q0: 0, Sources: []fluid.Source{{Law: law, Delay: tau, Lambda0: 2}}}
	sol, err := fm.Solve(800, 1e-3, 10)
	if err != nil {
		t.Fatal(err)
	}
	ts, qs := sol.Queue()
	var lo, hi = math.Inf(1), math.Inf(-1)
	for i, tt := range ts {
		if tt < 600 {
			continue
		}
		lo = math.Min(lo, qs[i])
		hi = math.Max(hi, qs[i])
	}
	ddeSwing := hi - lo
	if math.Abs(m.AmplitudeQ-ddeSwing)/ddeSwing > 0.05 {
		t.Fatalf("exact cycle amplitude %v vs DDE swing %v", m.AmplitudeQ, ddeSwing)
	}
}

// TestDelayedQueueNonNegative: the exact delayed path never dips below
// an empty queue, across delays and starts.
func TestDelayedQueueNonNegative(t *testing.T) {
	law := control.AIMD{C0: 2, C1: 0.8, QHat: 20}
	for _, tau := range []float64{0.5, 2, 5} {
		path, err := TraceExactDelayed(law, 10, tau, Point{Q: 50, Lambda: 0}, 400, 100000)
		if err != nil {
			t.Fatal(err)
		}
		_, pts := path.Sample(4000)
		for i, p := range pts {
			if p.Q < -1e-9 {
				t.Fatalf("τ=%v: negative queue %v at sample %d", tau, p.Q, i)
			}
			if p.Lambda < -1e-9 {
				t.Fatalf("τ=%v: negative rate %v at sample %d", tau, p.Lambda, i)
			}
		}
	}
}

func BenchmarkTraceExactDelayed(b *testing.B) {
	law := control.AIMD{C0: 2, C1: 0.8, QHat: 20}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := TraceExactDelayed(law, 10, 2, Point{Q: 0, Lambda: 2}, 400, 100000); err != nil {
			b.Fatal(err)
		}
	}
}
