// Package comm implements GPU-aware communication primitives on top of
// the network model: the Channel API (two-sided sends/receives of device
// buffers with completion callbacks, the mechanism this paper uses for
// Charm-D) and the older GPU Messaging API (metadata message + post
// entry method, kept for comparison).
//
// Both APIs mirror the Charm++/UCX design described in §II-B: a channel
// connects a pair of endpoints; send and recv calls are matched by tag;
// once both sides have posted, the data moves GPU-to-GPU over the
// GPUDirect path and each side's callback fires on completion.
package comm

import (
	"fmt"
	"unsafe"

	"gat/internal/netsim"
	"gat/internal/sim"
)

// Endpoint identifies one side of a channel: a global process id and the
// node it lives on.
type Endpoint struct {
	Proc int
	Node int
}

// Completion is a receive's completion callback in record form: Fn(eng,
// Arg) runs as its own event once the matching send's data has fully
// arrived. A caller keeps one inside a long-lived record — a chare's
// face, a task — and posts receives with a pointer to it, so posting a
// receive binds no closure. Arg must be non-nil (see sim.ArgFunc).
type Completion struct {
	Fn  sim.ArgFunc
	Arg unsafe.Pointer
}

// pending is one posted, not yet matched send or receive, queued in its
// channel's send or receive FIFO through next. Its match key is the
// destination endpoint, held as toB, and the tag. Once both sides have
// posted, the send's record carries the matched transfer until its
// data arrives. Records are recycled through the channel's Posts. A
// send's ready signal may fire while the send waits for its receive,
// so the record keeps a reference to it.
type pending struct {
	c        *Channel
	bytes    int64
	ready    sim.SignalRef
	sendDone *sim.Signal
	recvDone *Completion
	next     *pending
	tag      int32
	toB      bool // the data moves to endpoint b (else to a)
}

// Posts recycles the post records of every channel made from it, so
// their records are bounded by the posts live at once across all of
// them. The zero value is ready to use.
type Posts struct{ free sim.FreeList[pending] }

// Channel is a point-to-point GPU-aware communication channel between
// two endpoints. Sends and receives are matched by (destination, tag),
// oldest first; tags carry the iteration number in Jacobi3D, providing
// the same ordering guarantee as SDAG reference numbers.
//
// The unmatched posts wait in two FIFOs, one of sends and one of
// receives, each holding both directions' posts in posting order. A
// post is matched against the oldest post of the other kind under its
// key, found by a scan: a channel holds the posts of an iteration or
// two in flight, so its lists stay a few entries long, and it keeps no
// per-key index that would outlive them.
type Channel struct {
	net  *netsim.Network
	a, b Endpoint

	sends, recvs *pending // FIFO heads, linked through next
	posts        *Posts

	completed uint64
}

// NewChannel creates a channel between endpoints a and b, with Posts of
// its own.
func NewChannel(net *netsim.Network, a, b Endpoint) *Channel {
	return new(Posts).NewChannel(net, a, b)
}

// NewChannel creates a channel between endpoints a and b whose post
// records ps recycles.
func (ps *Posts) NewChannel(net *netsim.Network, a, b Endpoint) *Channel {
	if a.Proc == b.Proc {
		panic("comm: channel endpoints must differ")
	}
	return &Channel{net: net, a: a, b: b, posts: ps}
}

// tagKey returns tag as stored in a post. Tags must fit in 32 bits, the
// bound MPI implementations also place on theirs.
func tagKey(tag int) int32 {
	if int(int32(tag)) != tag {
		panic(fmt.Sprintf("comm: tag %d does not fit in 32 bits", tag))
	}
	return int32(tag)
}

// isB reports whether proc is endpoint b, panicking if it is neither
// endpoint.
func (c *Channel) isB(proc int) bool {
	switch proc {
	case c.a.Proc:
		return false
	case c.b.Proc:
		return true
	default:
		panic(fmt.Sprintf("comm: proc %d is not an endpoint of this channel", proc))
	}
}

// newPending returns a record of c's, zeroed but for c.
//
//gat:hotpath
func (c *Channel) newPending() *pending {
	p := c.posts.free.Get()
	p.c = c
	return p
}

// release returns p to the channel's Posts, dropping its references.
//
//gat:hotpath
func (c *Channel) release(p *pending) { c.posts.free.Put(p) }

// take removes and returns the oldest post in the FIFO at *head whose
// data moves toward toB under tag, or returns nil.
func take(head **pending, toB bool, tag int32) *pending {
	for link := head; *link != nil; link = &(*link).next {
		if p := *link; p.toB == toB && p.tag == tag {
			*link = p.next
			p.next = nil
			return p
		}
	}
	return nil
}

// queue appends p at the tail of the FIFO at *head.
func queue(head **pending, p *pending) {
	link := head
	for *link != nil {
		link = &(*link).next
	}
	*link = p
}

// Send posts a send of bytes from endpoint proc. The data is on the
// device and becomes valid when ready fires (e.g. after the packing
// kernel). done, if non-nil, fires (as its own event) when the transfer
// completes at the receiver, at which point the send buffer is reusable.
func (c *Channel) Send(proc, tag int, bytes int64, ready *sim.Signal, done *sim.Signal) {
	toB, key := !c.isB(proc), tagKey(tag)
	p := c.newPending()
	p.bytes, p.ready, p.sendDone, p.toB = bytes, ready.Ref(), done, toB
	if r := take(&c.recvs, toB, key); r != nil {
		p.recvDone = r.recvDone
		c.release(r)
		c.start(p)
		return
	}
	p.tag = key
	queue(&c.sends, p)
}

// Recv posts a receive at endpoint proc. done, if non-nil, runs (as its
// own event) when the matching send's data has fully arrived in the
// destination device buffer.
func (c *Channel) Recv(proc, tag int, done *Completion) {
	toB, key := c.isB(proc), tagKey(tag)
	if s := take(&c.sends, toB, key); s != nil {
		s.recvDone = done
		c.start(s)
		return
	}
	p := c.newPending()
	p.recvDone, p.tag, p.toB = done, key, toB
	queue(&c.recvs, p)
}

// start moves the data once both sides have posted; p carries the
// matched transfer until it arrives.
func (c *Channel) start(p *pending) {
	src, dst := c.a, c.b
	if !p.toB {
		src, dst = dst, src
	}
	c.net.TransferGPUDirect(src.Node, dst.Node, p.bytes, p.ready.Signal()).
		OnFireArg(c.net.Engine(), transferArrived, unsafe.Pointer(p))
}

// transferArrived completes a matched transfer: both sides' completions
// are scheduled as their own events, send first.
//
//gat:hotpath
func transferArrived(eng *sim.Engine, arg unsafe.Pointer) {
	p := (*pending)(arg)
	c := p.c
	c.completed++
	if p.sendDone != nil {
		eng.FireAt(eng.Now(), p.sendDone)
	}
	if d := p.recvDone; d != nil {
		eng.InjectAt(eng.Now(), d.Fn, d.Arg)
	}
	c.release(p)
}

// Completed returns the number of completed sends over this channel.
func (c *Channel) Completed() uint64 { return c.completed }

// PendingSends returns the number of unmatched sends (for tests and
// quiescence checks).
func (c *Channel) PendingSends() int { return count(c.sends) }

// PendingRecvs returns the number of unmatched receives.
func (c *Channel) PendingRecvs() int { return count(c.recvs) }

// MatchKeys returns the number of distinct match keys among the
// unmatched posts, counted in each FIFO (for leak checks).
func (c *Channel) MatchKeys() int { return keys(c.sends) + keys(c.recvs) }

func count(p *pending) int {
	n := 0
	for ; p != nil; p = p.next {
		n++
	}
	return n
}

// keys counts the posts in the FIFO from p that are the oldest of their
// key.
func keys(p *pending) int {
	n := 0
	for q := p; q != nil; q = q.next {
		first := true
		for r := p; r != q; r = r.next {
			if r.toB == q.toB && r.tag == q.tag {
				first = false
				break
			}
		}
		if first {
			n++
		}
	}
	return n
}
