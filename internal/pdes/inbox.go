package pdes

import (
	"fmt"
	"math"
	"unsafe"

	"gat/internal/sim"
)

// boxSlots is the number of message slots New carves for each inbox
// from one shared slab. A box that must hold more at once falls back
// to append, which moves it off the slab.
const boxSlots = 8

// lpBox is one LP's inbox: its undelivered messages, kept sorted by the
// partition-independent (At, Src, Seq) key in msgs[head:], plus the
// LP's send counter. For every distinct instant in the box exactly one
// drain event is pending on the LP's shard engine, or running while
// draining is set. A box is owned by its LP's shard while a window
// runs; the coordinator files into it only between windows. The field
// order packs it into 48 bytes.
type lpBox struct {
	sh       *shard
	msgs     []Message
	lp       int32
	head     int32
	sendSeq  uint32
	draining bool
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
func msgLess(a, b Message) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	return a.Seq < b.Seq
}

// push files m in (At, Src, Seq) order and schedules a drain at m.At
// when m opens an instant the box does not hold yet. A message for the
// instant the box is draining needs none: the running drain re-reads
// the head after every delivery and picks it up.
//
//gat:hotpath
func (b *lpBox) push(m Message) {
	q := b.msgs
	head := int(b.head)
	if len(q) == cap(q) && head > 0 {
		// Full, with delivered slots in front: slide the pending run
		// down instead of growing off the slab.
		q = q[:copy(q, q[head:])]
		head, b.head = 0, 0
	}
	q = append(q, m)
	i := len(q) - 1
	for i > head && msgLess(m, q[i-1]) {
		q[i] = q[i-1]
		i--
	}
	q[i] = m
	b.msgs = q
	if i > head && q[i-1].At == m.At || i+1 < len(q) && q[i+1].At == m.At {
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
// drain (see the package comment).
//
//gat:hotpath
func drainBox(eng *sim.Engine, arg unsafe.Pointer) {
	b := (*lpBox)(arg)
	sh := b.sh
	sh.ctx.box = b
	now := eng.Now()
	b.draining = true
	for int(b.head) < len(b.msgs) && b.msgs[b.head].At == now {
		m := b.msgs[b.head]
		b.head++
		if int(b.head) == len(b.msgs) {
			b.msgs, b.head = b.msgs[:0], 0
		}
		sh.delivered++
		sh.r.handler(&sh.ctx, m)
	}
	b.draining = false
}
