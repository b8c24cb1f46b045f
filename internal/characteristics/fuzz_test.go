package characteristics

import (
	"math"
	"testing"

	"fpcc/internal/control"
)

// fuzzInput decodes a fuzz input field by field; past its end every
// field reads as zero.
type fuzzInput []byte

// value decodes one byte: 255 is NaN, 254 +Inf, 253 −Inf, 252 1e308,
// 251 −1, and any other b is b·scale, so 0 and every non-finite and
// overflowing value are reachable.
func (in *fuzzInput) value(scale float64) float64 {
	var b byte
	if len(*in) > 0 {
		b, *in = (*in)[0], (*in)[1:]
	}
	switch b {
	case 255:
		return math.NaN()
	case 254:
		return math.Inf(1)
	case 253:
		return math.Inf(-1)
	case 252:
		return 1e308
	case 251:
		return -1
	default:
		return float64(b) * scale
	}
}

// tracerFuzzSegments is the segment budget of the exact tracers and
// tracerFuzzSteps the numeric tracer's fewest steps per horizon, small
// enough that every input runs in milliseconds.
const (
	tracerFuzzSegments = 2000
	tracerFuzzSteps    = 500
)

// decodeTracerInput reads, in order: the AIMD law's C0 and C1 (steps
// of 1/20) and q̂ (steps of 1), μ (1/4), the start queue (1) and rate
// (1/4), the horizon (4 s) and the delay τ (1/16 s).
func decodeTracerInput(data []byte) tracerInput {
	in := fuzzInput(data)
	var c tracerInput
	c.law = control.AIMD{C0: in.value(1.0 / 20), C1: in.value(1.0 / 20), QHat: in.value(1)}
	c.mu = in.value(0.25)
	c.p0 = Point{Q: in.value(1), Lambda: in.value(0.25)}
	c.horizon = in.value(4)
	c.tau = in.value(1.0 / 16)
	return c
}

// FuzzTracers holds the three tracers to one input contract. An input
// the check rejects makes every tracer that takes it return an error
// (TraceExact and Trace take no delay, so τ is theirs only through
// TraceExactDelayed). An accepted one either returns an error or a
// trace with finite, non-negative q and λ: an exact path's segments
// join without time gaps, each one's end within 1e-6 (relative above
// 1) of the next one's start, and a numeric trace ends within one
// step of its horizon. Nothing panics.
func FuzzTracers(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeTracerInput(data)
		undelayed := checkInputs(c.law, c.mu, c.p0, c.horizon, 0)

		path, err := TraceExact(c.law, c.mu, c.p0, c.horizon, tracerFuzzSegments)
		checkTracer(t, "TraceExact", undelayed, path, err, c)

		path, err = TraceExactDelayed(c.law, c.mu, c.tau, c.p0, c.horizon, tracerFuzzSegments)
		checkTracer(t, "TraceExactDelayed", checkInputs(c.law, c.mu, c.p0, c.horizon, c.tau), path, err, c)

		// RK4 is stable on the decrease branch λ' = −C1·λ only for
		// C1·dt below about 2.8; beyond it Trace fails once its queue
		// goes negative. So that Trace traces rather than fails, dt is
		// held to 1/C1 for every ordinary decoded C1 (at most 12.5) and
		// horizon (at most 1000 s), which keeps a run under 12,500
		// steps.
		dt := c.horizon / tracerFuzzSteps
		if c.law.C1 <= 12.5 && c.horizon <= 1000 && c.law.C1*dt > 1 {
			dt = 1 / c.law.C1
		}
		tr, err := traceAll(c.law, c.mu, c.p0, c.horizon, dt)
		switch {
		case undelayed != nil:
			if err == nil {
				t.Fatalf("Trace accepted an input the check rejects (%v)", undelayed)
			}
		case err == nil:
			for i := range tr.Len() {
				ti, y := tr.At(i)
				checkPoint(t, "Trace", i, Point{Q: y[0], Lambda: y[1]}, c)
				if i > 0 {
					if prev, _ := tr.At(i - 1); ti < prev {
						t.Fatalf("Trace: sample %d at t=%v precedes sample %d at %v", i, ti, i-1, prev)
					}
				}
			}
			if tEnd, _ := tr.Last(); tEnd > c.horizon || c.horizon-tEnd > dt {
				t.Fatalf("Trace ends at t=%v, not within one step %v of its horizon %v", tEnd, dt, c.horizon)
			}
		}
	})
}

// checkTracer holds one exact tracer's result to FuzzTracers' contract;
// rejected is the input check's verdict on the tracer's arguments.
func checkTracer(t *testing.T, name string, rejected error, path *Path, err error, c tracerInput) {
	t.Helper()
	if rejected != nil {
		if err == nil {
			t.Fatalf("%s accepted an input the check rejects (%v)", name, rejected)
		}
		return
	}
	if err != nil {
		return
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-6*math.Max(1, math.Abs(b)) }
	for i, sg := range path.Segments {
		end := sg.At(path.Law, path.Mu, sg.Dur)
		checkPoint(t, name, i, sg.Start, c)
		checkPoint(t, name, i, end, c)
		if !(sg.Dur >= 0) || math.IsInf(sg.Dur, 1) {
			t.Fatalf("%s: segment %d lasts %v", name, i, sg.Dur)
		}
		if i+1 == len(path.Segments) {
			break
		}
		next := path.Segments[i+1]
		if next.T0 != sg.T0+sg.Dur {
			t.Fatalf("%s: segment %d ends at t=%v, segment %d starts at %v", name, i, sg.T0+sg.Dur, i+1, next.T0)
		}
		if !near(end.Q, next.Start.Q) || !near(end.Lambda, next.Start.Lambda) {
			t.Fatalf("%s: segment %d ends at %+v, segment %d starts at %+v", name, i, end, i+1, next.Start)
		}
	}
	_, pts := path.Sample(200)
	for i, p := range pts {
		checkPoint(t, name+" sample", i, p, c)
	}
}

// checkPoint fails unless p is finite and non-negative, up to the
// rounding of a state snapped onto q = 0.
func checkPoint(t *testing.T, name string, i int, p Point, c tracerInput) {
	t.Helper()
	tol := 1e-9 * (1 + c.law.QHat + c.p0.Q)
	if !finite(p) || p.Q < -tol || p.Lambda < -tol {
		t.Fatalf("%s: point %d is %+v for input %+v", name, i, p, c)
	}
}
