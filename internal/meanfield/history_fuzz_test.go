package meanfield

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"
)

// interpAll is History.At's interpolation over an unpruned record:
// the oracle a pruned History must match bit for bit inside its
// window.
func interpAll(ts, qs []float64, t float64) float64 {
	n := len(ts)
	if n == 0 {
		return 0
	}
	if t <= ts[0] {
		return qs[0]
	}
	if t >= ts[n-1] {
		return qs[n-1]
	}
	k := sort.SearchFloat64s(ts, t)
	t0, t1 := ts[k-1], ts[k]
	if t1 == t0 {
		return qs[k]
	}
	frac := (t - t0) / (t1 - t0)
	return qs[k-1] + frac*(qs[k]-qs[k-1])
}

// FuzzHistoryAt holds History's prune to its contract. The input
// draws the record count (8000 plus up to 16383, so most inputs prune
// at least once) and then, cycling over the remaining bytes, one
// (step, queue, lag) triple per Record: a step byte divisible by 4
// repeats the previous timestamp, any other advances it by byte/64 s;
// the queue is a signed byte / 4; the cut is the largest t − byte/8
// seen so far, so it never decreases, as in the engines. Every value
// is dyadic, so cuts land exactly on recorded times. At at the cut
// after every Record, and after the last one at every recorded time
// at or past the cut, at the midpoints between them and past the end,
// must be bit-identical to interpAll over every sample recorded.
func FuzzHistoryAt(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		n := 8000 + int(binary.BigEndian.Uint16(data)%16384)
		stream := data[2:]
		next := func(i int) byte { return stream[i%len(stream)] }
		var h History
		var ts, qs []float64
		tt, cut := 0.0, math.Inf(-1)
		check := func(at float64) {
			got, want := h.At(at), interpAll(ts, qs, at)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("At(%v) = %v, want %v (cut %v, %d samples kept of %d)", at, got, want, cut, len(h.t), len(ts))
			}
		}
		for i := range n {
			if step := next(3 * i); step%4 != 0 {
				tt += float64(step) / 64
			}
			q := float64(int8(next(3*i+1))) / 4
			cut = math.Max(cut, tt-float64(next(3*i+2))/8)
			h.Record(tt, q, cut)
			ts, qs = append(ts, tt), append(qs, q)
			// The window's oldest edge is tested right after each
			// prune, before later cuts move past it.
			check(cut)
		}
		check(ts[len(ts)-1] + 1)
		for k := sort.SearchFloat64s(ts, cut); k < len(ts); k++ {
			check(ts[k])
			if k+1 < len(ts) {
				check((ts[k] + ts[k+1]) / 2)
			}
		}
	})
}
