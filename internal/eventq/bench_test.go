package eventq_test

import (
	"fmt"
	"testing"

	"fpcc/internal/eventq"
	"fpcc/internal/rng"
)

// netEvent has the shape of netsim's event: a time, four int fields
// and the sequence number, 48 bytes.
type netEvent struct {
	t    float64
	kind int
	flow int
	node int
	leg  int
	seq  uint64
}

func (e netEvent) Key() (float64, uint64) { return e.t, e.seq }

// BenchmarkPushPop times one Pop and one Push of a 48-byte event on a
// queue held at a fixed depth: each popped event is pushed back later
// by a step drawn from a 0.25 s lattice, so the new key lands anywhere
// in the heap and ties are common. The depths span the deepest queues
// the suite's experiments reach (5 to 546 events).
func BenchmarkPushPop(b *testing.B) {
	for _, depth := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			r := rng.New(1)
			steps := make([]float64, 1024) // precomputed so rng cost stays out of the loop
			for i := range steps {
				steps[i] = float64(1+r.Intn(depth)) * 0.25
			}
			var q eventq.Q[netEvent]
			var seq uint64
			for ; seq < uint64(depth); seq++ {
				q.Push(netEvent{t: float64(r.Intn(depth)) * 0.25, kind: int(seq % 7), seq: seq})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := q.Pop()
				e.t += steps[i%len(steps)]
				e.seq = seq
				seq++
				q.Push(e)
			}
		})
	}
}
