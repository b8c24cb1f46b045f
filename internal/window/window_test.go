package window

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"
)

// oracle is the unpruned record a Window must match: every record is
// kept, lookups scan it directly.
type oracle struct{ t, p []float64 }

// latest is Latest over every record: a scan for the last record at
// or before t (0 before the first).
func (o *oracle) latest(t float64) float64 {
	for i := len(o.t) - 1; i >= 0; i-- {
		if o.t[i] <= t {
			return o.p[i]
		}
	}
	return 0
}

// interp is Interp's arithmetic over every record.
func (o *oracle) interp(t float64) float64 {
	n := len(o.t)
	if n == 0 {
		return 0
	}
	if t <= o.t[0] {
		return o.p[0]
	}
	if t >= o.t[n-1] {
		return o.p[n-1]
	}
	k := sort.SearchFloat64s(o.t, t)
	t0, t1 := o.t[k-1], o.t[k]
	if t1 == t0 {
		return o.p[k]
	}
	frac := (t - t0) / (t1 - t0)
	return o.p[k-1] + frac*(o.p[k]-o.p[k-1])
}

// FuzzWindow holds both lookups and TailTimes to an unpruned oracle
// under arbitrary cuts. The input draws the record count (1 to 4096)
// and then, cycling over the remaining bytes, one (step, payload,
// lag) triple per Record: a step byte divisible by 4 repeats the
// previous time (a same-time burst), any other advances it by
// byte/64 s; the payload is a signed byte / 4; the cut is the time
// minus the signed lag byte / 8, so it may fall, jump back or lie
// ahead of every record. Every value is dyadic, so cuts land exactly
// on recorded times. Lookups at or after the largest cut passed so
// far must match the oracle bit for bit: after every Record at that
// cut, and after the last one at every recorded time at or past it,
// at the midpoints between them and past the end. TailTimes must
// always equal the oracle's last two times.
func FuzzWindow(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		n := 1 + int(binary.BigEndian.Uint16(data)%4096)
		stream := data[2:]
		next := func(i int) byte { return stream[i%len(stream)] }
		var w Window[float64]
		var o oracle
		tt, maxCut := 0.0, math.Inf(-1)
		check := func(at float64) {
			if got, want := Interp(&w, at), o.interp(at); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Interp(%v) = %v, want %v (cut %v, %d records kept of %d)", at, got, want, maxCut, len(w.t), len(o.t))
			}
			if got, want := w.Latest(at), o.latest(at); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Latest(%v) = %v, want %v (cut %v, %d records kept of %d)", at, got, want, maxCut, len(w.t), len(o.t))
			}
		}
		for i := range n {
			if step := next(3 * i); step%4 != 0 {
				tt += float64(step) / 64
			}
			p := float64(int8(next(3*i+1))) / 4
			cut := tt - float64(int8(next(3*i+2)))/8
			maxCut = math.Max(maxCut, cut)
			w.Record(tt, p, cut)
			o.t, o.p = append(o.t, tt), append(o.p, p)
			tail := o.t[max(len(o.t)-2, 0):]
			got := w.TailTimes()
			if len(got) != len(tail) || got[0] != tail[0] || got[len(got)-1] != tail[len(tail)-1] {
				t.Fatalf("TailTimes = %v, want %v", got, tail)
			}
			if len(w.t) > len(o.t) || len(w.p) != len(w.t) || cap(w.p) != cap(w.t) {
				t.Fatalf("%d times (cap %d) and %d payloads (cap %d) kept of %d records",
					len(w.t), cap(w.t), len(w.p), cap(w.p), len(o.t))
			}
			// The window's oldest edge is tested right after each
			// prune, before later cuts move past it.
			check(maxCut)
		}
		check(o.t[len(o.t)-1] + 1)
		for k := sort.SearchFloat64s(o.t, maxCut); k < len(o.t); k++ {
			check(o.t[k])
			if k+1 < len(o.t) {
				check((o.t[k] + o.t[k+1]) / 2)
			}
		}
	})
}

// TestLatestBurstAndEmpty pins the step lookup's edges: before the
// first record it reads the zero payload, and a same-time burst reads
// back as its last record, while Interp inside the range reads the
// burst's first.
func TestLatestBurstAndEmpty(t *testing.T) {
	var w Window[float64]
	if got := w.Latest(1); got != 0 {
		t.Fatalf("empty Latest(1) = %v, want 0", got)
	}
	if got := Interp(&w, 1); got != 0 {
		t.Fatalf("empty Interp(1) = %v, want 0", got)
	}
	w.Record(0, 1, 0)
	w.Record(2, 5, 0)
	w.Record(2, 7, 0)
	w.Record(4, 9, 0)
	for _, c := range []struct{ at, latest, interp float64 }{
		{-1, 0, 1}, {0, 1, 1}, {1, 1, 3}, {2, 7, 5}, {3, 7, 8}, {4, 9, 9}, {5, 9, 9},
	} {
		if got := w.Latest(c.at); got != c.latest {
			t.Errorf("Latest(%v) = %v, want %v", c.at, got, c.latest)
		}
		if got := Interp(&w, c.at); got != c.interp {
			t.Errorf("Interp(%v) = %v, want %v", c.at, got, c.interp)
		}
	}
}

// TestCapacitySettlesNearTheWindow: a record every 0.01 s with a 1 s
// lookback (the kinetic engines' step with no delay) keeps about 101
// records live, so the window settles at capacity 256 — not at the
// run's 8000 records — and then records without allocating.
func TestCapacitySettlesNearTheWindow(t *testing.T) {
	var w Window[float64]
	tt := 0.0
	record := func() {
		tt += 0.01
		w.Record(tt, tt, tt-1)
	}
	for range 8000 {
		record()
	}
	if c := cap(w.t); c != 256 {
		t.Errorf("capacity after 8000 records = %d, want 256", c)
	}
	if a := testing.AllocsPerRun(1000, record); a != 0 {
		t.Errorf("Record on a settled window: %v allocs, want 0", a)
	}
	if got, want := Interp(&w, tt-0.995), tt-0.995; math.Abs(got-want) > 1e-9 {
		t.Errorf("Interp at the lookback edge = %v, want %v", got, want)
	}
}
