package sim

// FIFO is a growable ring buffer of values in insertion order: the
// shape of a scheduler queue whose order within a priority class is
// submission order, so one FIFO per class replaces a heap keyed on
// (priority, sequence). Pop zeroes the vacated slot, so the ring keeps
// no reference a popped value held. The zero value is an empty FIFO.
type FIFO[T any] struct {
	buf  []T // len(buf) is a power of two, or nil before first use
	head int // index of the oldest value
	n    int // live values
}

// Len returns the number of queued values.
func (q *FIFO[T]) Len() int { return q.n }

// Push appends v at the tail, growing the ring if full.
//
//gat:hotpath
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// grow doubles the ring, re-linearizing live values at the front.
func (q *FIFO[T]) grow() {
	c := 2 * len(q.buf)
	if c == 0 {
		c = 8
	}
	buf := make([]T, c)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf, q.head = buf, 0
}

// Pop removes and returns the oldest value. The FIFO must be
// non-empty.
//
//gat:hotpath
func (q *FIFO[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}
