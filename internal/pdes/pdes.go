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
// cross-shard wire latency (netsim.MinCrossLatency).
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
//   - The barrier does not sort: it files every outbox message into its
//     destination inbox as it comes, messages due in later windows
//     included, and Post files straight into the inbox too.
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
	"sync"

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
	// contiguous blocks of LPs.
	ShardOf func(lp int) int
	// Handler delivers every message.
	Handler Handler
}

// shard is one partition: a private engine, the LPs it owns, and the
// outbox its LPs' cross-shard sends accumulate during a window.
type shard struct {
	id     int32
	r      *Runner
	eng    *sim.Engine
	outbox []Message
	// delivered counts the messages handed to the handler.
	delivered uint64
	// ctx is the reusable handler context, so delivery allocates
	// nothing per message.
	ctx Ctx
}

// Runner coordinates one partitioned run.
type Runner struct {
	handler   Handler
	lookahead sim.Time
	shards    []*shard
	lpShard   []int32
	// boxes is the per-LP inbox array, message slots included. Each
	// element is owned by the shard of its LP while a window runs; the
	// coordinator touches them only between windows.
	boxes     []lpBox
	windows   uint64
	crossMsgs uint64
	started   bool
}

// unboundedLimit bounds a window when no lookahead applies (one shard,
// or no cross-shard traffic possible).
const unboundedLimit = sim.Time(1<<62 - 1)

// New builds a Runner for the given partition. The configuration is
// validated eagerly: a bad LP count, shard map or missing handler is a
// programming error at the call site, not something to discover deep
// into a window.
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
	shardOf := cfg.ShardOf
	if shardOf == nil {
		per := (cfg.LPs + k - 1) / k
		shardOf = func(lp int) int { return lp / per }
	}
	r := &Runner{
		handler:   cfg.Handler,
		lookahead: cfg.Lookahead,
		lpShard:   make([]int32, cfg.LPs),
		boxes:     make([]lpBox, cfg.LPs),
	}
	for i := 0; i < k; i++ {
		sh := &shard{id: int32(i), r: r, eng: sim.NewEngine()}
		r.shards = append(r.shards, sh)
	}
	for lp := 0; lp < cfg.LPs; lp++ {
		s := shardOf(lp)
		if s < 0 || s >= k {
			return nil, fmt.Errorf("pdes: ShardOf(%d) = %d, want [0,%d)", lp, s, k)
		}
		r.lpShard[lp] = int32(s)
		// Set the two fields alone: the rest of the box, its slots
		// included, is already zero.
		b := &r.boxes[lp]
		b.sh, b.lp = r.shards[s], int32(lp)
	}
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

// Post files an initial message for lp, delivered at absolute time at.
// It may only be called before Run. A Post is a message from lp to
// itself, so Posts to one LP at one time are delivered in call order,
// like consecutive sends from one source; Posts to different LPs never
// order against each other. kind must be in 0..255, as for Send.
func (r *Runner) Post(lp int, at sim.Time, kind int32, data int64) {
	if r.started {
		panic("pdes: Post after Run")
	}
	if lp < 0 || lp >= len(r.boxes) {
		//gat:alloc-ok cold panic path
		panic(fmt.Sprintf("pdes: Post to LP %d of %d", lp, len(r.boxes)))
	}
	if at < 0 {
		//gat:alloc-ok cold panic path
		panic(fmt.Sprintf("pdes: Post at negative time %v", at))
	}
	if uint32(kind) > maxKind {
		//gat:alloc-ok cold panic path
		panic(fmt.Sprintf("pdes: Post of kind %d, outside 0..%d", kind, maxKind))
	}
	b := &r.boxes[lp]
	b.push(boxMsg{At: at, Seq: b.nextSeq(), src: srcKind(int32(lp), kind), Data: data})
	r.crossMsgs++
}

// Run advances every shard to quiescence: repeatedly place the next
// lookahead window at the global minimum pending time, run all shard
// engines concurrently to the window bound, then file the outboxes
// into their destination inboxes at the barrier. With one shard (or
// zero lookahead) the single window is unbounded and Run degenerates
// to a plain serial drain.
func (r *Runner) Run() {
	r.started = true
	for {
		next, ok := r.nextTime()
		if !ok {
			return
		}
		limit := unboundedLimit
		if r.lookahead > 0 && len(r.shards) > 1 {
			// Window [next, next+lookahead): cross-shard messages sent
			// inside it arrive at >= next + lookahead, beyond the bound
			// — RunUntil is inclusive, hence the -1.
			limit = next + r.lookahead - 1
		}
		r.runWindow(limit)
		r.collect()
		r.windows++
	}
}

// nextTime returns the earliest pending instant across shard engines —
// the start of the next window. Every filed message has its drain
// pending on its shard's engine, so the engines see them all.
func (r *Runner) nextTime() (sim.Time, bool) {
	var min sim.Time
	ok := false
	for _, sh := range r.shards {
		if t, has := sh.eng.NextEventTime(); has && (!ok || t < min) {
			min, ok = t, true
		}
	}
	return min, ok
}

// runWindow advances every shard engine to the window bound. Shards
// run on their own goroutines; the barrier (WaitGroup) orders their
// memory against the coordinator's filing on either side.
func (r *Runner) runWindow(limit sim.Time) {
	if len(r.shards) == 1 {
		r.shards[0].eng.RunUntil(limit)
		return
	}
	var wg sync.WaitGroup
	for _, sh := range r.shards {
		sh := sh
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh.eng.RunUntil(limit)
		}()
	}
	wg.Wait()
}

// collect files every shard outbox into the destination inboxes at the
// barrier, in outbox order. Each inbox sorts what it receives, so the
// barrier needs no sort of its own; messages due in later windows are
// filed too, their drains waiting on the destination engine.
//
//gat:hotpath
func (r *Runner) collect() {
	for _, sh := range r.shards {
		for _, m := range sh.outbox {
			r.boxes[m.Dst].push(boxed(m))
		}
		r.crossMsgs += uint64(len(sh.outbox))
		sh.outbox = sh.outbox[:0]
	}
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
	s := Stats{Shards: len(r.shards), Windows: r.windows, CrossMessages: r.crossMsgs}
	for _, sh := range r.shards {
		s.Events += sh.delivered
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
