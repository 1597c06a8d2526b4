package sim

import "math/bits"

// eventHeap is the timed-event store: a binary min-heap of same-instant
// buckets. Every pending timed event joins the FIFO bucket of its
// timestamp, and the heap orders buckets by (at, seq of the bucket's
// first event), so the root's front event is the earliest pending event
// and the heap moves only when a bucket opens or drains. The simulated
// machines are symmetric, so most timed events land on an instant that
// already has one pending: a pop or push of such an event costs a few
// loads and stores instead of an O(log n) sift.
//
// A push finds its instant's bucket through newest, a small
// direct-mapped table from timestamp to the newest bucket opened in
// that table slot. A miss — an instant whose entry was taken by another
// instant that shares the slot — opens another bucket, which is always
// correct: a bucket is appended to only while it is the newest for its
// instant, so two buckets of one instant hold disjoint, increasing seq
// ranges, and the heap key orders them.
//
// The heap keys are pointer-free and carry the bucket's slab index, so
// sifting them needs no GC write barriers and no load of the bucket.
type eventHeap struct {
	keys    []bucketKey // the binary min-heap, earliest bucket at index 0
	buckets []bucket    // slab of buckets, live and vacant
	vacant  []uint32    // slab indices of vacant buckets, reused last in first out
	spare   *chunk      // drained chunks, linked through next
	newest  [1 << tableBits]uint32
}

// tableBits sizes newest at 64 entries. A run keeps few distinct
// instants pending per table slot: with 64 entries, a paper-figs pass
// opens a bucket on 47.1 % of its timed pushes against an ideal (one
// bucket per pending instant) of 45.6 %, and the 512-node fig7c
// Charm-H run on 4.1 % against 3.4 %; 1,024 entries read 45.9 and
// 3.7 %.
const tableBits = 6

// chunkLen is the number of events one chunk holds. A bucket of two
// events already holds a whole chunk, so chunks stay small: with 8, a
// paper-figs pass peaks about 1 MB (3–4 %) above a binary heap of one
// 32-byte entry per event, within noise, and 4 peaks no lower.
const chunkLen = 8

// A bucketKey packs the first event's seq above the bucket's slab
// index; idxBits bounds both, and push panics past either bound.
const (
	idxBits   = 24
	idxMask   = 1<<idxBits - 1
	maxKeySeq = 1<<(64-idxBits) - 1
)

// bucketKey is a bucket's place in the heap: its instant, then the seq
// of its first event, packed with its slab index in seqIdx's low
// idxBits bits. Buckets of one instant have disjoint seq ranges, so
// (at, seqIdx) is a total order that agrees with (at, seq) on their
// events.
type bucketKey struct {
	at     Time
	seqIdx uint64
}

// before reports whether bucket a's events all fire before bucket b's.
func (a bucketKey) before(b bucketKey) bool { return a.precedes(b) != 0 }

// precedes is before as 0 or 1. It compares (at, seqIdx) as one 128-bit
// unsigned number — at is never negative, since push rejects the past
// and the clock starts at zero — so popKey picks the earlier child with
// arithmetic instead of a branch that random fire times mispredict half
// the time.
func (a bucketKey) precedes(b bucketKey) uint64 {
	_, borrow := bits.Sub64(a.seqIdx, b.seqIdx, 0)
	_, borrow = bits.Sub64(uint64(a.at), uint64(b.at), borrow)
	return borrow
}

// bucket is the FIFO of the pending events of one instant. The first
// is inline, the rest sit in chunks taken from the heap's pool and
// returned to it as they drain, so a bucket holding one event — the
// common case where instants rarely repeat — touches no chunk.
type bucket struct {
	at         Time   // the instant; -1 while the bucket is vacant
	front      event  // the earliest pending event of the instant
	head, tail *chunk // the later events in push order; nil if none
	r, w       int32  // next read index in head, next write index in tail
}

// chunk holds up to chunkLen events of one bucket in push order.
type chunk struct {
	ev   [chunkLen]event
	next *chunk
}

// empty reports whether no timed event is pending.
//
//gat:hotpath
func (h *eventHeap) empty() bool { return len(h.keys) == 0 }

// minAt returns the earliest pending instant. The store must be
// non-empty.
//
//gat:hotpath
func (h *eventHeap) minAt() Time { return h.keys[0].at }

// tableSlot maps an instant to its entry in newest by Fibonacci
// hashing, so instants a fixed stride apart spread over the table.
//
//gat:hotpath
func tableSlot(t Time) uint64 { return uint64(t) * 0x9E3779B97F4A7C15 >> (64 - tableBits) }

// push adds ev at instant t; seq is the engine-wide sequence of the
// push and must exceed every pending event's. A miss in newest opens a
// bucket keyed by seq, makes it the slot's newest and sifts
// its key up toward the root. The sift holds the key aside and shifts
// displaced parents down, one copy per level instead of a three-copy
// swap; in the common no-movement case (a new bucket later than its
// parent) nothing is written beyond the append. Opening a bucket is
// written inline, not in helpers, to keep this path's stack shallow:
// pdes shards run each lookahead window on a fresh goroutine, and two
// more frames here overflowed its initial stack, costing a stack copy
// per window.
//
//gat:hotpath
func (h *eventHeap) push(t Time, seq uint64, ev event) {
	s := tableSlot(t)
	if i := h.newest[s]; int(i) < len(h.buckets) && h.buckets[i].at == t {
		h.appendTo(&h.buckets[i], ev)
		return
	}
	if seq > maxKeySeq {
		//gat:alloc-ok cold panic path
		panic("sim: event sequence number overflows the timed store's bucket key")
	}
	var i uint32
	if n := len(h.vacant); n > 0 {
		i = h.vacant[n-1]
		h.vacant = h.vacant[:n-1]
	} else {
		if len(h.buckets) > idxMask {
			//gat:alloc-ok cold panic path
			panic("sim: too many pending instants for the timed store's bucket key")
		}
		i = uint32(len(h.buckets))
		h.buckets = append(h.buckets, bucket{})
	}
	b := &h.buckets[i]
	b.at, b.front = t, ev
	h.newest[s] = i
	k := bucketKey{at: t, seqIdx: seq<<idxBits | uint64(i)}
	q := append(h.keys, k)
	j := len(q) - 1
	if j > 0 && k.before(q[(j-1)/2]) {
		for j > 0 {
			p := (j - 1) / 2
			if !k.before(q[p]) {
				break
			}
			q[j] = q[p]
			j = p
		}
		q[j] = k
	}
	h.keys = q
}

// appendTo adds ev behind b's pending events.
//
//gat:hotpath
func (h *eventHeap) appendTo(b *bucket, ev event) {
	c := b.tail
	if c == nil || b.w == chunkLen {
		n := h.spare
		if n == nil {
			n = new(chunk)
		} else {
			h.spare, n.next = n.next, nil
		}
		if c == nil {
			b.head, b.r = n, 0
		} else {
			c.next = n
		}
		c, b.tail, b.w = n, n, 0
	}
	c.ev[b.w] = ev
	b.w++
}

// pop removes and returns the earliest pending event and its instant.
// The store must be non-empty. Every vacated slot — a chunk's, or the
// front of a drained bucket — is zeroed, so the store does not retain
// an executed event's closure and the object graph it captures.
//
//gat:hotpath
func (h *eventHeap) pop() (Time, event) {
	k := h.keys[0]
	i := uint32(k.seqIdx & idxMask)
	b := &h.buckets[i]
	ev := b.front
	if c := b.head; c != nil {
		b.front = c.ev[b.r]
		c.ev[b.r] = event{}
		b.r++
		if c == b.tail && b.r == b.w {
			b.head, b.tail = nil, nil
			h.release(c)
		} else if b.r == chunkLen {
			b.head, b.r = c.next, 0
			h.release(c)
		}
		return k.at, ev
	}
	b.at, b.front = -1, event{}
	h.vacant = append(h.vacant, i)
	h.popKey()
	return k.at, ev
}

// release returns a drained chunk, every slot already zeroed, to the
// pool.
//
//gat:hotpath
func (h *eventHeap) release(c *chunk) {
	c.next, h.spare = h.spare, c
}

// popKey removes the root key.
//
//gat:hotpath
func (h *eventHeap) popKey() {
	q := h.keys
	n := len(q) - 1
	tail := q[n]
	q = q[:n]
	h.keys = q
	if n == 0 {
		return
	}
	// Sift the hole at the root down, pulling the smaller child up one
	// copy per level, until the displaced tail key fits.
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n {
			c += int(q[c+1].precedes(q[c]))
		}
		if !q[c].before(tail) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = tail
}
