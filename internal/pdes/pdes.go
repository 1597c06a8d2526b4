// Package pdes is the conservative parallel-in-run layer: one
// simulated run partitioned across K shards, each owning a private
// sim.Engine, advancing together through bounded lookahead windows —
// with results byte-identical to serial execution at any K.
//
// # Model
//
// The unit of partitioning is the logical process (LP): a node, a
// process, anything that owns its state and interacts with other LPs
// only through timestamped messages. Each LP belongs to one shard.
// A message to an LP on the same shard is scheduled directly on the
// shard's engine; a message to another shard is buffered in the
// sender's outbox and exchanged at the next window barrier.
//
// The window bound comes from conservative lookahead: if every
// cross-shard message sent at time t arrives no earlier than
// t + lookahead, then all shards can safely advance from the global
// next-event time `next` to just before next + lookahead without any
// of them receiving a message from the "past". For the cluster
// topologies in internal/netsim that lookahead is the minimum
// cross-shard wire latency: for a partition of whole switch groups,
// netsim.CrossGroupLatency.
//
// # Goroutines
//
// The goroutine that builds and runs a Runner does work per shard,
// never per LP. New has the shard goroutines map the LPs to shards and
// set up the inboxes of the LPs each owns, on storage a finished run
// kept when one is large enough. Post only queues. Run gives every
// shard a goroutine for the whole run: it files its LPs' Posts, then
// runs window after window, meeting the other shards at one barrier per
// window and filing the cross-shard messages addressed to its LPs.
//
// # Determinism
//
// Serial/sharded byte-identity does not come for free from the
// engines' (time, seq) order — engine sequence numbers differ across
// partitions. It comes from a delivery discipline this package
// enforces:
//
//   - Every message lands in the destination LP's inbox, a small array
//     inside the LP's record kept sorted on insert by (At, Src, Seq),
//     where Seq is a per-source send counter. The (Src, Seq) pair is
//     partition-independent.
//   - Delivery events are per LP-instant: a push schedules a drain only
//     when its instant is new to the inbox, and that drain delivers
//     every message of its instant from the inbox head, re-reading the
//     head after each handler call.
//   - The barrier does not sort: after it, every shard files each
//     outbox message addressed to its own LPs into the destination inbox
//     as it comes, messages due in later windows included. Run starts by
//     filing the queued Posts the same way, each on its LP's shard.
//
// Each LP still sees exact (At, Src, Seq) order at every K. An LP's
// handler runs only inside its own drains. A message from another LP
// needs a delay of at least 1ns (Send enforces it), so every such
// message for instant T is filed before T is reached: a same-shard one
// was pushed at an earlier instant, and a cross-shard one, whose delay
// is at least the lookahead, was filed at a barrier before the window
// that holds T. The only message that can join T while T is being
// delivered is the LP's own zero-delay self-send, and the running
// drain picks it up. Only the order between different LPs' drains at
// one instant depends on the partition, and a handler cannot observe
// it.
//
// A Handler must therefore be a deterministic function of its own LP's
// state and the delivered message: LPs on one shard run concurrently
// with LPs on other shards, so shared mutable state across LPs is both
// a data race and a determinism bug.
package pdes

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"gat/internal/sim"
)

// Message is one timestamped interaction between two logical
// processes. Kind and Data carry the payload; protocols needing more
// than one word index LP-local state with it. The field order leaves
// no padding: a Message is 32 bytes. An inbox holds it in 24, without
// Dst and with Kind in 8 bits.
type Message struct {
	// At is the delivery time at Dst.
	At sim.Time
	// Seq is the per-source send sequence — with Src, a
	// partition-independent identity that breaks delivery ties. Send
	// and Post panic before a source's counter would wrap, so it never
	// misorders delivery.
	Seq uint32
	// Src and Dst are LP ids. Src == Dst for self-messages.
	Src, Dst int32
	// Kind discriminates the message for the handler. Send and Post
	// accept 0..255.
	Kind int32
	// Data is one payload word.
	Data int64
}

// Handler delivers one message to its destination LP. It runs on the
// destination shard's goroutine and must touch only that LP's state
// and the Ctx.
type Handler func(ctx *Ctx, m Message)

// Config describes a partitioned run.
type Config struct {
	// LPs is the number of logical processes, ids 0..LPs-1, at most
	// 2^24.
	LPs int
	// Shards is the requested shard count; it is clamped to [1, LPs].
	Shards int
	// Lookahead is the conservative bound: a cross-shard message sent
	// at t may not be delivered before t + Lookahead. Zero means no
	// cross-shard traffic is possible (Send panics on any), and windows
	// are unbounded.
	Lookahead sim.Time
	// ShardOf maps an LP to its shard in [0, Shards). Nil assigns
	// contiguous blocks of LPs. New calls it once per LP, from several
	// goroutines at once, so it must be safe for concurrent use.
	ShardOf func(lp int) int
	// Handler delivers every message.
	Handler Handler
}

// shard is one partition: a private engine, the LPs it owns, and the
// messages on their way in and out of it. Only the shard's own
// goroutine touches it while Run runs, except that the other shards
// read its sent outboxes and next instants between barriers.
//
// The fields a delivery reads and writes fill the first 64 bytes, and
// padding makes a shard 192 bytes, so that shards allocated side by
// side share no cache line: a line shared by two shard goroutines
// would move between their cores on every message.
type shard struct {
	id  int32
	r   *Runner
	eng *sim.Engine
	// outbox collects the cross-shard sends of the running window.
	outbox []Message
	// delivered counts the messages handed to the handler.
	delivered uint64
	// ctx is the reusable handler context, so delivery allocates
	// nothing per message.
	ctx Ctx

	// sent holds the outboxes of the last two windows, by window
	// parity: after a window's barrier every shard files what it
	// addresses from sent[w&1] while this shard's next window fills
	// the other one.
	sent [2][]Message
	// next holds, by window parity, the earliest instant the shard will
	// hold once the window's outboxes are filed: its engine's next event
	// or its earliest outgoing message, never when it has neither.
	next [2]sim.Time
	// posts holds the Posts to the shard's LPs until Run files them,
	// each as its inbox will hold it but for Seq. A Post's Src is its
	// destination.
	posts []boxMsg
	// filed counts the messages filed into the shard's inboxes from
	// Posts and from other shards.
	filed uint64
	// lps is the number of LPs the shard owns.
	lps int
	_   [24]byte
}

// Runner coordinates one partitioned run.
type Runner struct {
	handler   Handler
	lookahead sim.Time
	shards    []*shard
	// lpShard and boxes are every LP's shard and inbox, message slots
	// included, held in slab until Run returns it. A box is owned by its
	// LP's shard while Run runs.
	lpShard []int32
	boxes   []lpBox
	slab    *lpSlab
	windows uint64
	started bool
	// barrier holds the shard goroutines together at each window's end.
	barrier barrier
}

// unboundedLimit bounds a window when no lookahead applies (one shard,
// or no cross-shard traffic possible).
const unboundedLimit = sim.Time(1<<62 - 1)

// never is a shard's next instant when it holds nothing.
const never = sim.Time(math.MaxInt64)

// New builds a Runner for the given partition. The configuration is
// validated eagerly: a bad LP count, shard map or missing handler is a
// programming error at the call site, not something to discover deep
// into a window.
//
// The calling goroutine does work per shard, not per LP: the shards'
// goroutines map one block of LP ids each through ShardOf, then set up
// the inboxes of the LPs they own.
func New(cfg Config) (*Runner, error) {
	if cfg.LPs <= 0 || cfg.LPs > maxLPs {
		return nil, fmt.Errorf("pdes: need 1 to %d LPs, got %d", maxLPs, cfg.LPs)
	}
	if cfg.Handler == nil {
		return nil, fmt.Errorf("pdes: Config.Handler must be set")
	}
	if cfg.Lookahead < 0 {
		return nil, fmt.Errorf("pdes: negative lookahead %v", cfg.Lookahead)
	}
	k := cfg.Shards
	if k < 1 {
		k = 1
	}
	if k > cfg.LPs {
		k = cfg.LPs
	}
	per := (cfg.LPs + k - 1) / k
	shardOf := cfg.ShardOf
	if shardOf == nil {
		shardOf = func(lp int) int { return lp / per }
	}
	slab := takeSlab(cfg.LPs)
	r := &Runner{
		handler:   cfg.Handler,
		lookahead: cfg.Lookahead,
		lpShard:   slab.lpShard,
		boxes:     slab.boxes,
		slab:      slab,
		barrier:   barrier{n: int32(k)},
	}
	r.barrier.woken.L = &r.barrier.mu
	for i := 0; i < k; i++ {
		sh := &shard{id: int32(i), r: r, eng: sim.NewEngine()}
		if i < len(slab.posts) {
			sh.posts = slab.posts[i]
		}
		r.shards = append(r.shards, sh)
	}
	// Shard i maps LPs [i*per, (i+1)*per) and records the first it
	// cannot place, or -1.
	bad := make([]int, k)
	r.each(func(sh *shard) {
		bad[sh.id] = -1
		for lp := int(sh.id) * per; lp < min(int(sh.id+1)*per, cfg.LPs); lp++ {
			s := shardOf(lp)
			if s < 0 || s >= k {
				bad[sh.id] = lp
				return
			}
			r.lpShard[lp] = int32(s)
		}
	})
	for _, lp := range bad {
		if lp >= 0 {
			r.release()
			return nil, fmt.Errorf("pdes: ShardOf(%d) = %d, want [0,%d)", lp, shardOf(lp), k)
		}
	}
	r.each(func(sh *shard) {
		for lp, s := range r.lpShard {
			if s == sh.id {
				r.boxes[lp] = lpBox{sh: sh, lp: int32(lp)}
				sh.lps++
			}
		}
	})
	return r, nil
}

// MustNew is New or panic, for callers whose configuration is static.
func MustNew(cfg Config) *Runner {
	r, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// Post queues an initial message for lp, delivered at absolute time
// at. It may only be called before Run, which files the queued Posts
// on their LPs' shards. A Post is a message from lp to itself, so Posts
// to one LP at one time are delivered in call order, like consecutive
// sends from one source; Posts to different LPs never order against
// each other. kind must be in 0..255, as for Send.
func (r *Runner) Post(lp int, at sim.Time, kind int32, data int64) {
	if r.started {
		panic("pdes: Post after Run")
	}
	if lp < 0 || lp >= len(r.lpShard) {
		//gat:alloc-ok cold panic path
		panic(fmt.Sprintf("pdes: Post to LP %d of %d", lp, len(r.lpShard)))
	}
	if at < 0 {
		//gat:alloc-ok cold panic path
		panic(fmt.Sprintf("pdes: Post at negative time %v", at))
	}
	if uint32(kind) > maxKind {
		//gat:alloc-ok cold panic path
		panic(fmt.Sprintf("pdes: Post of kind %d, outside 0..%d", kind, maxKind))
	}
	sh := r.shards[r.lpShard[lp]]
	if sh.posts == nil {
		// Room for a Post per LP, the usual seeding, in one allocation.
		sh.posts = make([]boxMsg, 0, sh.lps)
	}
	sh.posts = append(sh.posts, boxMsg{At: at, src: srcKind(int32(lp), kind), Data: data})
}

// Run advances every shard to quiescence. Each shard runs on a
// goroutine of its own for the whole run (a lone shard on the
// caller's): it files the Posts to its LPs, then repeats a window —
// place it at the global minimum pending time, run the shard's engine
// to its bound, meet the other shards at the barrier, file the
// cross-shard messages addressed to its own LPs. The calling goroutine
// only waits. With one shard (or zero lookahead) the single window is
// unbounded and Run degenerates to a plain serial drain. Run hands the
// Runner's LP storage back for the next New, so only the first call
// runs; a later one returns at once.
func (r *Runner) Run() {
	if r.started {
		return
	}
	r.started = true
	r.barrier.procs = int32(runtime.GOMAXPROCS(0))
	n := int32(len(r.shards))
	running.Add(n)
	defer running.Add(-n) // also when a lone shard's handler panics
	r.each((*shard).run)
	r.release()
}

// running counts the shard goroutines inside Run, over every Runner of
// the process.
var running atomic.Int32

// each runs f on every shard at once, each on a goroutine of its own,
// and returns when all have returned. A single shard runs on the
// caller's goroutine.
func (r *Runner) each(f func(*shard)) {
	if len(r.shards) == 1 {
		f(r.shards[0])
		return
	}
	var wg sync.WaitGroup
	for _, sh := range r.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(sh)
		}()
	}
	wg.Wait()
}

// release hands the LP storage, the shards' emptied post queues
// included, to the next New. The Runner keeps nothing that reaches the
// storage, and each shard, which the storage's stale inboxes still
// point to, keeps nothing of the run but its counters.
func (r *Runner) release() {
	s := r.slab
	s.posts = s.posts[:0]
	for _, sh := range r.shards {
		s.posts = append(s.posts, sh.posts[:0])
		sh.r, sh.eng, sh.outbox, sh.sent, sh.posts = nil, nil, nil, [2][]Message{}, nil
	}
	putSlab(s)
	r.slab, r.boxes, r.lpShard = nil, nil, nil
}

// run is one shard's part of Run. Window w's cross-shard sends go to
// sent[w&1], which the other shards file from after the barrier that
// ends w, while this shard runs window w+1 into sent[(w+1)&1]: that
// outbox was filed from before the barrier that ends w, so one barrier
// per window keeps the two apart. The next instants alternate the same
// way. Every shard computes the same window bounds from them, and so
// stops after the same window.
func (sh *shard) run() {
	r := sh.r
	for _, m := range sh.posts {
		b := &r.boxes[m.src>>8]
		m.Seq = b.nextSeq()
		b.push(m)
	}
	sh.filed += uint64(len(sh.posts))
	for w := 0; ; w++ {
		p := w & 1
		sh.sent[p] = sh.outbox
		next := never
		if t, ok := sh.eng.NextEventTime(); ok {
			next = t
		}
		for i := range sh.outbox {
			next = min(next, sh.outbox[i].At)
		}
		sh.next[p] = next
		r.barrier.wait()
		for _, o := range r.shards {
			next = min(next, o.next[p])
		}
		if next == never {
			if sh.id == 0 {
				r.windows = uint64(w)
			}
			return
		}
		sh.file(p)
		sh.outbox = sh.sent[1-p][:0]
		limit := unboundedLimit
		if r.lookahead > 0 && len(r.shards) > 1 {
			// Window [next, next+lookahead): cross-shard messages sent
			// inside it arrive at >= next + lookahead, beyond the bound
			// — RunUntil is inclusive, hence the -1.
			limit = next + r.lookahead - 1
		}
		sh.eng.RunUntil(limit)
	}
}

// file files the messages of the other shards' outboxes of parity p
// that are addressed to this shard's LPs into their inboxes. Each inbox
// sorts what it receives, so the order of filing does not matter;
// messages due in later windows are filed too, their drains waiting on
// the engine.
//
//gat:hotpath
func (sh *shard) file(p int) {
	r := sh.r
	for _, o := range r.shards {
		if o == sh {
			continue
		}
		sent := o.sent[p]
		for i := range sent {
			m := &sent[i]
			if r.lpShard[m.Dst] == sh.id {
				r.boxes[m.Dst].push(boxed(*m))
				sh.filed++
			}
		}
	}
}

// barrier holds n goroutines in wait until all n have called it, then
// releases them together, round after round. What a goroutine writes
// before its wait happens before what any of them reads after.
type barrier struct {
	n int32
	// procs is GOMAXPROCS when the run started.
	procs   int32
	arrived atomic.Int32
	round   atomic.Uint32
	mu      sync.Mutex
	woken   sync.Cond
}

// barrierSpins is how often a waiter checks for the last arrival,
// yielding its thread in between, before it sleeps: a millisecond or
// two, longer than the shards of an exascale-lp window usually arrive
// apart. A sleeper resumes only once another core has picked it up from
// the last arrival's run queue; on a 2-vCPU VM, exascale-lp's pass took
// 10–30 % longer at 64 spins than at this count. A waiter spins only
// while every running shard can have a thread of its own: with more
// shards than threads, its turns on a thread delay the shards that
// still have work (`sweep -j 4 -shards 4` took up to a third longer on
// two vCPUs).
const barrierSpins = 10000

func (b *barrier) wait() {
	round := b.round.Load()
	if b.arrived.Add(1) == b.n {
		b.arrived.Store(0)
		b.mu.Lock()
		b.round.Store(round + 1)
		b.mu.Unlock()
		b.woken.Broadcast()
		return
	}
	for i := 0; i < barrierSpins && running.Load() <= b.procs; i++ {
		if b.round.Load() != round {
			return
		}
		runtime.Gosched()
	}
	b.mu.Lock()
	for b.round.Load() == round {
		b.woken.Wait()
	}
	b.mu.Unlock()
}

// Stats summarizes a completed (or in-progress) run.
type Stats struct {
	// Shards is the effective shard count.
	Shards int
	// Windows is the number of lookahead windows executed.
	Windows uint64
	// CrossMessages counts messages filed at window barriers
	// (cross-shard traffic plus pre-run Posts).
	CrossMessages uint64
	// Events is the number of messages delivered across shards. It is
	// partition-independent; the engine events behind it are fewer,
	// one drain per LP and instant.
	Events uint64
}

// Stats returns the run's execution summary. Windows and CrossMessages
// vary with the partition; Events does not.
func (r *Runner) Stats() Stats {
	s := Stats{Shards: len(r.shards), Windows: r.windows}
	for _, sh := range r.shards {
		s.Events += sh.delivered
		s.CrossMessages += sh.filed
	}
	return s
}

// Ctx is the API a Handler interacts with the run through.
type Ctx struct {
	box *lpBox
}

// Now returns the LP's current simulation time.
func (c *Ctx) Now() sim.Time { return c.box.sh.eng.Now() }

// LP returns the id of the LP the message was delivered to.
func (c *Ctx) LP() int { return int(c.box.lp) }

// Send queues a message from the current LP to dst after delay.
// Self-messages (dst == the current LP) may use any delay >= 0; a
// message to another LP must use delay >= 1ns — that gap is what makes
// delivery order partition-independent — and a message to another
// shard must respect the configured lookahead. kind must be in 0..255.
//
//gat:hotpath
func (c *Ctx) Send(dst int, delay sim.Time, kind int32, data int64) {
	b := c.box
	sh := b.sh
	r := sh.r
	if dst < 0 || dst >= len(r.boxes) {
		//gat:alloc-ok cold panic path
		panic(fmt.Sprintf("pdes: send to LP %d of %d", dst, len(r.boxes)))
	}
	if delay < 0 {
		//gat:alloc-ok cold panic path
		panic(fmt.Sprintf("pdes: negative send delay %v", delay))
	}
	src := b.lp
	if int32(dst) != src && delay < sim.Nanosecond {
		//gat:alloc-ok cold panic path
		panic(fmt.Sprintf("pdes: zero-delay send %d->%d; inter-LP messages need delay >= 1ns", src, dst))
	}
	if uint32(kind) > maxKind {
		//gat:alloc-ok cold panic path
		panic(fmt.Sprintf("pdes: send of kind %d, outside 0..%d", kind, maxKind))
	}
	at, seq := sh.eng.Now()+delay, b.nextSeq()
	if r.lpShard[dst] == sh.id {
		// A boxMsg literal, not boxed(Message{...}): a Message is
		// built in memory, and boxed's copy of it would stall on its
		// fresh stores.
		r.boxes[dst].push(boxMsg{At: at, Seq: seq, src: srcKind(src, kind), Data: data})
		return
	}
	if r.lookahead <= 0 {
		//gat:alloc-ok cold panic path
		panic(fmt.Sprintf("pdes: cross-shard send %d->%d with zero lookahead", src, dst))
	}
	if delay < r.lookahead {
		//gat:alloc-ok cold panic path
		panic(fmt.Sprintf("pdes: cross-shard send %d->%d with delay %v < lookahead %v", src, dst, delay, r.lookahead))
	}
	sh.outbox = append(sh.outbox, Message{At: at, Seq: seq, Src: src, Dst: int32(dst), Kind: kind, Data: data})
}
