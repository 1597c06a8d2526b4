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

// pending is one posted, not yet matched send or receive, queued FIFO
// per match key through next. Once both sides have posted, the send's
// record carries the matched transfer until its data arrives. Records
// are recycled through the channel's free list, also linked through
// next. A send's ready signal may fire while the send waits for its
// receive, so the record keeps a reference to it.
type pending struct {
	c        *Channel
	bytes    int64
	ready    sim.SignalRef
	sendDone *sim.Signal
	recvDone func()
	next     *pending
}

type matchKey struct {
	dstProc int
	tag     int
}

// Channel is a point-to-point GPU-aware communication channel between
// two endpoints. Sends and receives are matched by (destination, tag);
// tags carry the iteration number in Jacobi3D, providing the same
// ordering guarantee as SDAG reference numbers.
//
// Each match map holds only keys with posts waiting: a key is deleted
// when its last post is matched, so a channel's maps stay as small as
// the posts in flight however many iterations it carries.
type Channel struct {
	net  *netsim.Network
	a, b Endpoint

	sends map[matchKey]*pending
	recvs map[matchKey]*pending
	free  *pending

	sent, received uint64
}

// NewChannel creates a channel between endpoints a and b.
func NewChannel(net *netsim.Network, a, b Endpoint) *Channel {
	if a.Proc == b.Proc {
		panic("comm: channel endpoints must differ")
	}
	return &Channel{
		net:   net,
		a:     a,
		b:     b,
		sends: make(map[matchKey]*pending),
		recvs: make(map[matchKey]*pending),
	}
}

func (c *Channel) peer(proc int) Endpoint {
	switch proc {
	case c.a.Proc:
		return c.b
	case c.b.Proc:
		return c.a
	default:
		panic(fmt.Sprintf("comm: proc %d is not an endpoint of this channel", proc))
	}
}

func (c *Channel) endpoint(proc int) Endpoint {
	if proc == c.a.Proc {
		return c.a
	}
	return c.b
}

// newPending returns a zeroed record from the free list.
//
//gat:hotpath
func (c *Channel) newPending() *pending {
	if p := c.free; p != nil {
		c.free = p.next
		p.next = nil
		return p
	}
	return &pending{c: c}
}

// release returns p to the free list, dropping its references.
//
//gat:hotpath
func (c *Channel) release(p *pending) {
	*p = pending{c: c, next: c.free}
	c.free = p
}

// popFirst removes and returns the oldest post under key, deleting the
// key once it has none left, or returns nil.
func popFirst(m map[matchKey]*pending, key matchKey) *pending {
	p := m[key]
	if p == nil {
		return nil
	}
	if p.next == nil {
		delete(m, key)
	} else {
		m[key] = p.next
		p.next = nil
	}
	return p
}

// appendPost queues p behind any earlier posts under key.
func appendPost(m map[matchKey]*pending, key matchKey, p *pending) {
	head := m[key]
	if head == nil {
		m[key] = p
		return
	}
	for head.next != nil {
		head = head.next
	}
	head.next = p
}

// Send posts a send of bytes from endpoint proc. The data is on the
// device and becomes valid when ready fires (e.g. after the packing
// kernel). done, if non-nil, fires (as its own event) when the transfer
// completes at the receiver, at which point the send buffer is reusable.
func (c *Channel) Send(proc, tag int, bytes int64, ready *sim.Signal, done *sim.Signal) {
	dst := c.peer(proc)
	key := matchKey{dstProc: dst.Proc, tag: tag}
	p := c.newPending()
	p.bytes, p.ready, p.sendDone = bytes, ready.Ref(), done
	if r := popFirst(c.recvs, key); r != nil {
		p.recvDone = r.recvDone
		c.release(r)
		c.start(proc, dst.Proc, p)
		return
	}
	appendPost(c.sends, key, p)
}

// Recv posts a receive at endpoint proc. done runs when the matching
// send's data has fully arrived in the destination device buffer.
func (c *Channel) Recv(proc, tag int, done func()) {
	key := matchKey{dstProc: c.endpoint(proc).Proc, tag: tag}
	if s := popFirst(c.sends, key); s != nil {
		s.recvDone = done
		c.start(c.peer(proc).Proc, proc, s)
		return
	}
	p := c.newPending()
	p.recvDone = done
	appendPost(c.recvs, key, p)
}

// start moves the data once both sides have posted; p carries the
// matched transfer until it arrives.
func (c *Channel) start(srcProc, dstProc int, p *pending) {
	src, dst := c.endpoint(srcProc), c.endpoint(dstProc)
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
	c.sent++
	c.received++
	if p.sendDone != nil {
		eng.FireAt(eng.Now(), p.sendDone)
	}
	if p.recvDone != nil {
		eng.Schedule(0, p.recvDone)
	}
	c.release(p)
}

// Completed returns the number of completed sends over this channel.
func (c *Channel) Completed() uint64 { return c.sent }

// PendingSends returns the number of unmatched sends (for tests and
// quiescence checks).
func (c *Channel) PendingSends() int { return countPosts(c.sends) }

// PendingRecvs returns the number of unmatched receives.
func (c *Channel) PendingRecvs() int { return countPosts(c.recvs) }

// MatchKeys returns the number of match keys the channel currently
// holds across both directions' maps (for leak checks).
func (c *Channel) MatchKeys() int { return len(c.sends) + len(c.recvs) }

func countPosts(m map[matchKey]*pending) int {
	n := 0
	for _, p := range m { //gat:nondet-ok a count is independent of iteration order
		for ; p != nil; p = p.next {
			n++
		}
	}
	return n
}
