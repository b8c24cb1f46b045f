package des

import "testing"

// FuzzFIFO holds FIFO to a slice oracle. Each input byte is one call
// batch: the top two bits pick the call (0 push, 1 pop, 2 pop from an
// empty queue, which must panic, 3 pop everything) and the low six
// bits plus one the repeat count, so a short input reaches the
// compaction threshold. Pushed values count up, so order is checked.
// After every call the queue must match the oracle in length, keep
// the dead prefix within the compaction bound and reset its head once
// emptied, and every Pop must return the oracle's head; after every
// batch the queued elements must match the oracle in order.
func FuzzFIFO(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var q FIFO[int]
		var oracle []int
		next := 0
		check := func(op string) {
			if q.Len() != len(oracle) {
				t.Fatalf("after %s: Len %d, oracle %d", op, q.Len(), len(oracle))
			}
			if !(q.head <= 64 || q.head <= len(q.buf)/2) {
				t.Fatalf("after %s: head %d not compacted (len %d)", op, q.head, len(q.buf))
			}
			if q.Len() == 0 && q.head != 0 {
				t.Fatalf("after %s: empty queue keeps head %d", op, q.head)
			}
		}
		pop := func() {
			if got := q.Pop(); got != oracle[0] {
				t.Fatalf("Pop = %d, oracle %d", got, oracle[0])
			}
			oracle = oracle[1:]
			check("Pop")
		}
		for _, b := range data {
			n := int(b&63) + 1
			switch b >> 6 {
			case 0:
				for range n {
					q.Push(next)
					oracle = append(oracle, next)
					next++
					check("Push")
				}
			case 1:
				for range n {
					if len(oracle) > 0 {
						pop()
					}
				}
			case 2:
				if len(oracle) > 0 {
					break
				}
				func() {
					defer func() {
						if recover() == nil {
							t.Fatal("Pop on an empty queue did not panic")
						}
					}()
					q.Pop()
				}()
				check("empty Pop")
			case 3:
				for len(oracle) > 0 {
					pop()
				}
			}
			for i, v := range q.buf[q.head:] {
				if v != oracle[i] {
					t.Fatalf("after call batch %#x: element %d is %d, oracle %d", b, i, v, oracle[i])
				}
			}
		}
	})
}
