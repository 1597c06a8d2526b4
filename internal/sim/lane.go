package sim

// eventLane is a growable ring buffer holding zero-delay events in
// insertion order. The bulk of a simulation's events are zero-delay —
// signal wakeups, queue wakeups, yields, proc resumes — and for those
// (time, seq) order degenerates to plain FIFO, so a ring buffer
// delivers them with one store and one load instead of a heap
// sift-up/sift-down pair.
//
// Invariant: every queued entry was scheduled at the engine's current
// time, so the lane must drain completely before the clock advances.
// A timed event at that instant was pushed before the clock reached it,
// so before every lane entry: the engine's run loop runs such events
// first, then the lane.
type eventLane struct {
	buf  []event // len(buf) is a power of two, or nil before first use
	head int     // index of the oldest entry
	n    int     // live entries
}

// push appends ev at the tail, growing the ring if full.
//
//gat:hotpath
func (l *eventLane) push(ev event) {
	if l.n == len(l.buf) {
		l.grow()
	}
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = ev
	l.n++
}

// grow doubles the ring, re-linearizing live entries at the front.
func (l *eventLane) grow() {
	newCap := 2 * len(l.buf)
	if newCap == 0 {
		newCap = 64
	}
	buf := make([]event, newCap)
	for i := 0; i < l.n; i++ {
		buf[i] = l.buf[(l.head+i)&(len(l.buf)-1)]
	}
	l.buf = buf
	l.head = 0
}

// pop removes and returns the oldest entry. The vacated slot is zeroed
// so the ring does not retain the entry's payload once it has run. The
// lane must be non-empty.
//
//gat:hotpath
func (l *eventLane) pop() event {
	ev := l.buf[l.head]
	l.buf[l.head] = event{}
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
	return ev
}
