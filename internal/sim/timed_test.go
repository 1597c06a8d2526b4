package sim

import (
	"math"
	"sort"
	"testing"
	"unsafe"
)

// TestEventHeapOrdering pushes a scrambled schedule, runs a hold phase
// (each pop pushes a replacement no earlier than the popped event, as
// the engine does), then drains, and checks that pops come back sorted
// by (time, insertion order). The times are drawn from a narrow range,
// so most instants hold many events across several chunks and the seq
// tie-break is carried by the buckets' FIFO order. Events carry no seq,
// so each one's arg points at its seq in a side slab.
func TestEventHeapOrdering(t *testing.T) {
	var h eventHeap
	rng := NewRNG(42)
	const n = 2000
	seqs := make([]uint64, 6*n+1)
	var seq uint64
	push := func(at Time) {
		seq++
		seqs[seq] = seq
		h.push(at, seq, event{arg: unsafe.Pointer(&seqs[seq])})
	}
	var lastAt Time
	var lastSeq uint64
	pop := func(i int) {
		at, e := h.pop()
		got := *(*uint64)(e.arg)
		if i > 0 && (at < lastAt || at == lastAt && got < lastSeq) {
			t.Fatalf("pop %d out of order: (%v,%d) after (%v,%d)", i, at, got, lastAt, lastSeq)
		}
		lastAt, lastSeq = at, got
	}
	for i := 0; i < n; i++ {
		push(Time(rng.Intn(50)))
	}
	for i := 0; i < 4*n; i++ {
		pop(i)
		push(lastAt + Time(rng.Intn(50)))
	}
	for i := 0; i < n; i++ {
		pop(4*n + i)
	}
	if !h.empty() {
		t.Fatalf("store not drained: %d buckets left", len(h.keys))
	}
}

// TestEventBefore pins the bucket key order at the edges of both
// words: a later time loses whatever its seq, and equal times fall
// through to the packed seq and slab index.
func TestEventBefore(t *testing.T) {
	cases := []struct {
		a, b bucketKey
		want bool
	}{
		{bucketKey{at: 1, seqIdx: 5}, bucketKey{at: 2, seqIdx: 1}, true},
		{bucketKey{at: 2, seqIdx: 1}, bucketKey{at: 1, seqIdx: 5}, false},
		{bucketKey{at: 3, seqIdx: 1}, bucketKey{at: 3, seqIdx: 2}, true},
		{bucketKey{at: 3, seqIdx: 2}, bucketKey{at: 3, seqIdx: 1}, false},
		{bucketKey{at: 3, seqIdx: 2}, bucketKey{at: 3, seqIdx: 2}, false},
		{bucketKey{at: 0, seqIdx: math.MaxUint64}, bucketKey{at: 1, seqIdx: 0}, true},
		{bucketKey{at: 1, seqIdx: 0}, bucketKey{at: 0, seqIdx: math.MaxUint64}, false},
		{bucketKey{at: maxTime, seqIdx: 1}, bucketKey{at: maxTime, seqIdx: 2}, true},
		{bucketKey{at: maxTime - 1, seqIdx: 9}, bucketKey{at: maxTime, seqIdx: 1}, true},
		// A smaller seq wins over a larger slab index.
		{bucketKey{at: 4, seqIdx: 1<<idxBits | idxMask}, bucketKey{at: 4, seqIdx: 2 << idxBits}, true},
	}
	for _, c := range cases {
		if got := c.a.before(c.b); got != c.want {
			t.Errorf("(%d,%#x).before(%d,%#x) = %v, want %v", c.a.at, c.a.seqIdx, c.b.at, c.b.seqIdx, got, c.want)
		}
	}
}

// TestEventHeapPopClearsSlot checks that the store retains no executed
// event's closure: a popped chunk slot, every slot of a chunk returned
// to the pool, and the front of a drained bucket are all zero.
func TestEventHeapPopClearsSlot(t *testing.T) {
	var h eventHeap
	fn := fnToPtr(func() {})
	const n = 1 + 2*chunkLen + 3 // the inline front, two full chunks and part of a third
	for i := 1; i <= n; i++ {
		h.push(7, uint64(i), event{fn: fn})
	}
	h.push(9, n+1, event{fn: fn})
	for i := 0; i < 1+chunkLen+2; i++ {
		h.pop()
	}
	b := &h.buckets[h.keys[0].seqIdx&idxMask]
	for r := int32(0); r < b.r; r++ {
		if s := b.head.ev[r]; s != (event{}) {
			t.Fatalf("popped chunk slot %d still live: %+v", r, s)
		}
	}
	if h.spare == nil {
		t.Fatal("the drained first chunk did not return to the pool")
	}
	for c := h.spare; c != nil; c = c.next {
		for j, s := range c.ev {
			if s != (event{}) {
				t.Fatalf("pooled chunk slot %d still live: %+v", j, s)
			}
		}
	}
	for !h.empty() {
		h.pop()
	}
	for i := range h.buckets {
		if b := h.buckets[i]; b.front.fn != nil || b.head != nil || b.tail != nil {
			t.Fatalf("drained bucket %d still holds events: %+v", i, b)
		}
	}
}

// TestTimedKeySeqBound checks the bucket key's packing bound: the
// largest seq that fits opens a bucket, and the next one panics rather
// than wrap into the slab index bits.
func TestTimedKeySeqBound(t *testing.T) {
	var h eventHeap
	fn := fnToPtr(func() {})
	h.push(1, maxKeySeq, event{fn: fn})
	if at, ev := h.pop(); at != 1 || ev.fn != fn {
		t.Fatalf("popped (%v,%+v), want the event pushed at 1", at, ev)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a seq past the bucket key's bound did not panic")
		}
	}()
	h.push(2, maxKeySeq+1, event{fn: fn})
}

// sameSlotAfter returns the first instant after from that shares
// instant t's table slot.
func sameSlotAfter(t, from Time) Time {
	for u := from + 1; ; u++ {
		if tableSlot(u) == tableSlot(t) {
			return u
		}
	}
}

// TestTimedNewestBucket pins the one non-obvious invariant of the
// timed store: an instant whose table entry another instant took gets
// a second bucket, and an event is appended only to its instant's
// newest live bucket. Pops, NextEventTime and the lane/timed
// interleave must all follow exact (time, seq) order.
func TestTimedNewestBucket(t *testing.T) {
	for _, noLane := range []bool{false, true} {
		e := NewEngine()
		e.noLane = noLane
		t0, t1 := Time(5), Time(6)
		t2 := sameSlotAfter(t1, t1)
		var got []string
		at := func(when Time, name string, then func()) {
			e.At(when, func() {
				if e.Now() != when {
					t.Errorf("%s ran at %v, want %v", name, e.Now(), when)
				}
				got = append(got, name)
				if then != nil {
					then()
				}
			})
		}
		at(t0, "Z", func() {
			// t1 has two buckets ({A} and {C, D}) and t2's bucket holds
			// the table slot, so F opens a third: it must land behind D,
			// never in A's older bucket.
			at(t1, "F", nil)
		})
		at(t1, "A", func() {
			// A zero-delay push while t1's later buckets are pending:
			// with the lane it waits for them, and without it, it joins
			// F's bucket, t1's newest.
			at(t1, "A0", func() {
				// Without the lane, A0 drains F's bucket, which still
				// holds the table slot: this push must open a bucket,
				// not append to the drained one.
				at(t1, "A00", nil)
			})
		})
		at(t2, "B", nil)
		at(t1, "C", nil)
		at(t1, "D", nil)
		at(t2, "E", nil)
		wantTimes := []Time{t0, t1, t1, t1, t1, t1, t1, t2, t2}
		for i := 0; ; i++ {
			next, ok := e.NextEventTime()
			if !e.Step() {
				if ok {
					t.Fatalf("noLane=%v: NextEventTime reports %v but no event ran", noLane, next)
				}
				break
			}
			if !ok || i >= len(wantTimes) || next != wantTimes[i] {
				t.Fatalf("noLane=%v: before event %d NextEventTime = %v,%v", noLane, i, next, ok)
			}
		}
		want := []string{"Z", "A", "C", "D", "F", "A0", "A00", "B", "E"}
		if len(got) != len(want) {
			t.Fatalf("noLane=%v: ran %v, want %v", noLane, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("noLane=%v: ran %v, want %v", noLane, got, want)
			}
		}
	}
}

// FuzzTimedOrder runs a program of timed pushes, zero-delay pushes,
// pops and pushes made from inside popped events on an Engine, and
// checks every event against a reference that keeps the pending events
// in a slice sorted by (time, seq). Delays come from a small range, so
// instants collide, and one op pushes to an instant that shares a
// table slot with the latest timed push. The first byte selects the
// noLane hook.
func FuzzTimedOrder(f *testing.F) {
	// all ties: every push lands 4 ns out, popped in between
	f.Add([]byte{0, 0x0c, 0x0c, 0x0c, 0x0c, 0x03, 0x0c, 0x03, 0x8c, 0x03, 0x03, 0x03, 0x03})
	// colliding slots: timed pushes interleaved with pushes to a
	// slot-sharing instant, then pushes from inside events
	f.Add([]byte{0, 0x04, 0x01, 0x04, 0x01, 0x05, 0x84, 0x81, 0x03, 0x0c, 0x01, 0x03, 0x03, 0x8d, 0x03})
	// bimodal: near and far delays with zero-delay pushes
	f.Add([]byte{1, 0x00, 0x1c, 0x00, 0x1c, 0x02, 0x03, 0x9c, 0x80, 0x03, 0x02, 0x03, 0x1c, 0x03})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 || len(prog) > 1024 {
			return // the reference's sorted insert is linear: keep programs short
		}
		type ref struct {
			at  Time
			seq uint64
			id  int
		}
		e := NewEngine()
		e.noLane = prog[0]&1 == 1
		var pending []ref // sorted by (at, seq)
		var seq uint64
		nextID := 0
		lastAt := Time(0)
		var push func(at Time, child byte)
		push = func(at Time, child byte) {
			seq++
			id := nextID
			nextID++
			r := ref{at: at, seq: seq, id: id}
			i := sort.Search(len(pending), func(i int) bool {
				p := pending[i]
				return p.at > at || p.at == at && p.seq > r.seq
			})
			pending = append(pending, ref{})
			copy(pending[i+1:], pending[i:])
			pending[i] = r
			if at > e.Now() {
				lastAt = at
			}
			e.At(at, func() {
				if len(pending) == 0 {
					t.Fatalf("event %d ran, the reference has none pending", id)
				}
				if p := pending[0]; p.id != id || p.at != e.Now() {
					t.Fatalf("event %d ran at %v, want event %d at %v", id, e.Now(), p.id, p.at)
				}
				pending = pending[1:]
				if child != 0 {
					push(e.Now()+Time(child&7), 0)
				}
			})
		}
		for _, b := range prog[1:] {
			var child byte
			if b&0x80 != 0 {
				child = 8 | b>>4&7 // the pushed event pushes one more, 0–7 ns after it runs
			}
			d := Time(b >> 2 & 7)
			switch b & 3 {
			case 0:
				push(e.Now()+1+d, child)
			case 1:
				push(sameSlotAfter(lastAt, max(lastAt, e.Now())+d), child)
			case 2:
				push(e.Now(), child)
			case 3:
				want, wantOK := Time(0), len(pending) > 0
				if wantOK {
					want = pending[0].at
				}
				if next, ok := e.NextEventTime(); ok != wantOK || ok && next != want {
					t.Fatalf("NextEventTime = %v,%v, want %v,%v", next, ok, want, wantOK)
				}
				e.Step()
			}
		}
		e.Run()
		if len(pending) != 0 || !e.Idle() {
			t.Fatalf("drained engine left %d reference events, Idle=%v", len(pending), e.Idle())
		}
	})
}
