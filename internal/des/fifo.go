package des

// FIFO is the first-in, first-out packet queue every packet engine
// serves from (des.Sim, TahoeSim, each TandemSim hop and each
// internal/netsim node). buf[head:] holds the queued elements: an arena
// with a sliding head, so a Pop is one index bump instead of a re-slice
// that churns the backing array. The dead prefix is compacted away only
// when it is more than half the array, so Push and Pop are amortized
// O(1) and allocate nothing in steady state. Popped slots are not
// cleared, so T should hold no pointers. The zero value is empty.
type FIFO[T any] struct {
	buf  []T
	head int
}

// Len returns the number of queued elements.
func (q *FIFO[T]) Len() int { return len(q.buf) - q.head }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) { q.buf = append(q.buf, v) }

// Pop removes and returns the head; it panics on an empty queue.
func (q *FIFO[T]) Pop() T {
	v := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	} else if q.head > 64 && q.head > len(q.buf)/2 {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return v
}
