package pdes

import (
	"fmt"
	"math"
	"sync"
	"unsafe"

	"gat/internal/sim"
)

// boxSlots is the number of messages an inbox holds inside its own
// record. A box that must hold more at once moves them to a spill
// array on the heap and keeps using it.
const boxSlots = 8

// maxLPs is the largest LP count New accepts: an inbox keeps a
// message's Src in 24 bits.
const maxLPs = 1 << 24

// maxKind is the largest Message.Kind Send and Post accept: an inbox
// keeps it in the 8 bits beside Src.
const maxKind = 1<<8 - 1

// boxMsg is a Message as an inbox holds it, in 24 bytes: Dst is the
// box's LP, and Kind shares a word with Src. drainBox unpacks it.
type boxMsg struct {
	At   sim.Time
	Seq  uint32
	src  uint32 // srcKind(Src, Kind)
	Data int64
}

// srcKind packs a message's Src and Kind into boxMsg.src.
func srcKind(src, kind int32) uint32 { return uint32(src)<<8 | uint32(kind) }

// boxed returns m as its destination's inbox holds it.
func boxed(m Message) boxMsg {
	return boxMsg{At: m.At, Seq: m.Seq, src: srcKind(m.Src, m.Kind), Data: m.Data}
}

// lpBox is one LP's inbox: its undelivered messages, kept sorted by the
// partition-independent (At, Src, Seq) key in buf()[head:head+n], plus
// the LP's send counter. For every distinct instant in the box exactly
// one drain event is pending on the LP's shard engine, or running while
// draining is set. A box is owned by its LP's shard while a window
// runs; the coordinator files into it only between windows. The field
// order packs it into 232 bytes, 192 of them slots.
type lpBox struct {
	sh *shard
	// spill holds the messages instead of slots once more than
	// boxSlots were pending at once; nil until then.
	spill    *[]boxMsg
	lp       int32
	head, n  int32
	sendSeq  uint32
	draining bool
	slots    [boxSlots]boxMsg
}

// lpSlab is a Runner's per-LP storage: every LP's shard and inbox, and
// each shard's queue of Posts, by shard id.
type lpSlab struct {
	lpShard []int32
	boxes   []lpBox
	posts   [][]boxMsg
}

// kept is the storage of the largest run that has finished, for the
// next New to take: a process that runs one partitioned simulation
// after another allocates and zeroes its inboxes once, not once per run
// on whichever goroutine calls New. It carries nothing of a run: New's
// shards overwrite every shard entry and inbox they hand out, and a
// post queue is read only up to its length. One slot, not a sync.Pool:
// a collection empties a pool, which would make reuse depend on when
// the collector runs, and the slot holds no more than the largest run
// needed. The gatcheck build, where sim.Recycles is false, never keeps
// one.
var kept struct {
	sync.Mutex
	slab *lpSlab
}

// takeSlab returns storage for n LPs: the kept slab if it is large
// enough, else a new one.
func takeSlab(n int) *lpSlab {
	if sim.Recycles {
		kept.Lock()
		s := kept.slab
		if s != nil && cap(s.boxes) >= n {
			kept.slab = nil
			kept.Unlock()
			s.lpShard, s.boxes = s.lpShard[:n], s.boxes[:n]
			return s
		}
		kept.Unlock()
	}
	return &lpSlab{lpShard: make([]int32, n), boxes: make([]lpBox, n)}
}

// putSlab keeps s if it is larger than the slab kept so far.
func putSlab(s *lpSlab) {
	if !sim.Recycles {
		return
	}
	kept.Lock()
	if kept.slab == nil || cap(kept.slab.boxes) < cap(s.boxes) {
		kept.slab = s
	}
	kept.Unlock()
}

// buf returns the array the box's messages live in.
//
//gat:hotpath
func (b *lpBox) buf() []boxMsg {
	if b.spill != nil {
		return *b.spill
	}
	return b.slots[:]
}

// grow moves the box's messages, which fill its array from the front,
// to a spill array twice the size, and returns it.
//
//go:noinline
func (b *lpBox) grow() []boxMsg {
	q := b.buf()
	s := make([]boxMsg, 2*len(q))
	copy(s, q)
	b.spill = &s
	return s
}

// nextSeq advances the LP's send counter and returns the Seq of its
// next message. It panics instead of wrapping: a wrapped Seq would
// order the source's newest message before its older ones.
//
//gat:hotpath
func (b *lpBox) nextSeq() uint32 {
	if b.sendSeq == math.MaxUint32 {
		seqWrapPanic(b.lp)
	}
	b.sendSeq++
	return b.sendSeq
}

// seqWrapPanic is nextSeq's cold path, kept out of line so nextSeq
// stays inlinable.
//
//go:noinline
func seqWrapPanic(lp int32) {
	panic(fmt.Sprintf("pdes: LP %d has sent %d messages; its send counter would wrap", lp, uint64(math.MaxUint32)))
}

// ptr returns the box as the untyped event argument drainBox receives.
func (b *lpBox) ptr() unsafe.Pointer { return unsafe.Pointer(b) }

// msgLess orders messages by (At, Src, Seq) — delivery order. The key
// is total: Seq increments per source, so no two messages from one
// source collide, and distinct sources differ in Src.
//
//gat:hotpath
func msgLess(a, b *boxMsg) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.src>>8 != b.src>>8 {
		return a.src < b.src
	}
	return a.Seq < b.Seq
}

// push files m in (At, Src, Seq) order and schedules a drain at m.At
// when m opens an instant the box does not hold yet. A message for the
// instant the box is draining needs none: the running drain re-reads
// the head after every delivery and picks it up.
//
//gat:hotpath
func (b *lpBox) push(m boxMsg) {
	q := b.buf()
	head := int(b.head)
	end := head + int(b.n)
	if end == len(q) {
		if head > 0 {
			// Full, with delivered slots in front: slide the pending
			// run down instead of growing.
			end = copy(q, q[head:end])
			head, b.head = 0, 0
		} else {
			q = b.grow()
		}
	}
	i := end
	for i > head && msgLess(&m, &q[i-1]) {
		q[i] = q[i-1]
		i--
	}
	q[i] = m
	b.n++
	if i > head && q[i-1].At == m.At || i < end && q[i+1].At == m.At {
		return // the instant's drain is already pending
	}
	if b.draining && m.At == b.sh.eng.Now() {
		return
	}
	b.sh.eng.InjectAt(m.At, drainBox, b.ptr())
}

// drainBox is the delivery event of one LP-instant: it hands the
// handler every message the box holds for the current instant, in
// (At, Src, Seq) order. It re-reads the head after each handler call,
// so a zero-delay self-send made meanwhile is delivered by this same
// drain (see the package comment). The Message is built field by field
// in place: copied whole out of an inlined helper, its narrow stores
// stall the wide loads of the copy.
//
//gat:hotpath
func drainBox(eng *sim.Engine, arg unsafe.Pointer) {
	b := (*lpBox)(arg)
	sh := b.sh
	sh.ctx.box = b
	now := eng.Now()
	b.draining = true
	for b.n > 0 {
		p := &b.buf()[b.head]
		if p.At != now {
			break
		}
		m := Message{
			At: p.At, Seq: p.Seq, Src: int32(p.src >> 8), Dst: b.lp,
			Kind: int32(p.src & maxKind), Data: p.Data,
		}
		b.head++
		b.n--
		if b.n == 0 {
			b.head = 0
		}
		sh.delivered++
		sh.r.handler(&sh.ctx, m)
	}
	b.draining = false
}
