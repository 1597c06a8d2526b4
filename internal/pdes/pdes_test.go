package pdes

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"gat/internal/sim"
)

// echoRun wires a tiny two-LP protocol: LP 0 sends a token to LP 1,
// which bounces it back, for a fixed number of round trips.
func echoRun(t *testing.T, shards int) (trace string, st Stats) {
	t.Helper()
	const la = 10 * sim.Nanosecond
	// One log per LP: handlers may only touch their own LP's state
	// (LPs on different shards run concurrently).
	logs := make([][]string, 2)
	r := MustNew(Config{
		LPs: 2, Shards: shards, Lookahead: la,
		Handler: func(ctx *Ctx, m Message) {
			lp := ctx.LP()
			logs[lp] = append(logs[lp], fmt.Sprintf("%d@%d from %d data %d", lp, ctx.Now(), m.Src, m.Data))
			if m.Data > 0 {
				ctx.Send(1-lp, la, 0, m.Data-1)
			}
		},
	})
	r.Post(0, 0, 0, 6)
	r.Run()
	return strings.Join(logs[0], "\n") + "\n---\n" + strings.Join(logs[1], "\n"), r.Stats()
}

// TestEchoAcrossShards checks the bounced token produces the exact
// same per-LP delivery traces serial and sharded, and that the sharded
// run really windowed (more than one barrier).
func TestEchoAcrossShards(t *testing.T) {
	serial, st1 := echoRun(t, 1)
	if st1.Events != 7 {
		t.Fatalf("serial echo delivered %d messages, want 7:\n%s", st1.Events, serial)
	}
	sharded, st2 := echoRun(t, 2)
	if sharded != serial {
		t.Fatalf("sharded trace differs:\n--- serial ---\n%s\n--- sharded ---\n%s", serial, sharded)
	}
	if st2.Shards != 2 || st2.Windows < 2 {
		t.Fatalf("sharded run did not window: %+v", st2)
	}
	if st1.Events != st2.Events {
		t.Fatalf("event count is partition-dependent: %d vs %d", st1.Events, st2.Events)
	}
	if st1.CrossMessages != 1 { // just the Post
		t.Fatalf("serial run merged %d messages, want 1 (the Post)", st1.CrossMessages)
	}
}

// TestShardsClamped: more shards than LPs degrade gracefully.
func TestShardsClamped(t *testing.T) {
	_, st := echoRun(t, 16)
	if st.Shards != 2 {
		t.Fatalf("shards not clamped to LP count: %d", st.Shards)
	}
}

// TestSelfMessageZeroDelay checks a zero-delay self-send is allowed
// and delivered in send order at the same instant, after the message
// that triggered it — and, when two sources reach one LP at one
// instant, in (At, Src, Seq) order among them: LP 3 hears from LPs 2
// and 5 at t=10 and, handling LP 2's message, sends itself a zero-delay
// message, which must come between the two.
func TestSelfMessageZeroDelay(t *testing.T) {
	var got []int64
	r := MustNew(Config{
		LPs: 1, Shards: 1,
		Handler: func(ctx *Ctx, m Message) {
			got = append(got, m.Data)
			if m.Data < 3 {
				ctx.Send(0, 0, 0, m.Data+1)
			}
		},
	})
	r.Post(0, 5, 0, 0)
	r.Run()
	if want := []int64{0, 1, 2, 3}; !slices.Equal(got, want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}

	for _, shards := range []int{1, 2, 3} {
		var srcs []int32
		r := MustNew(Config{
			LPs: 6, Shards: shards, Lookahead: 10,
			Handler: func(ctx *Ctx, m Message) {
				switch ctx.LP() {
				case 2, 5: // the Posts: both send to LP 3 for t=10
					ctx.Send(3, 10, 0, 0)
				case 3:
					srcs = append(srcs, m.Src)
					if m.Src == 2 {
						ctx.Send(3, 0, 0, 0)
					}
				}
			},
		})
		r.Post(5, 0, 0, 0)
		r.Post(2, 0, 0, 0)
		r.Run()
		if want := []int32{2, 3, 5}; !slices.Equal(srcs, want) {
			t.Errorf("shards=%d: LP 3 heard from %v at t=10, want %v", shards, srcs, want)
		}
		if st := r.Stats(); st.Events != 5 {
			t.Errorf("shards=%d: %d messages delivered, want 5", shards, st.Events)
		}
	}
}

// TestCrossShardJoinsPendingInstant checks that a message filed at a
// barrier joins an instant its destination already holds, in
// (At, Src, Seq) order: LP 2 has t=20 pending from LP 3 on its own
// shard when LP 1's cross-shard message for t=20, with the smaller
// Src, arrives at the barrier. LP 1's message must be delivered first,
// and Stats.Events must count both (plus the two Posts) although one
// drain delivers them.
func TestCrossShardJoinsPendingInstant(t *testing.T) {
	for _, shards := range []int{1, 2} {
		var srcs []int32
		r := MustNew(Config{
			LPs: 4, Shards: shards, Lookahead: 10,
			ShardOf: func(lp int) int { return lp / 2 % shards },
			Handler: func(ctx *Ctx, m Message) {
				if ctx.LP() == 2 {
					srcs = append(srcs, m.Src)
					return
				}
				ctx.Send(2, 20-ctx.Now(), 0, 0)
			},
		})
		r.Post(3, 0, 0, 0) // same-shard sender: t=20 pending from t=0
		r.Post(1, 5, 0, 0) // cross-shard sender, filed at the barrier
		r.Run()
		st := r.Stats()
		if want := []int32{1, 3}; !slices.Equal(srcs, want) {
			t.Errorf("shards=%d: LP 2 heard from %v at t=20, want %v", shards, srcs, want)
		}
		if st.Events != 4 {
			t.Errorf("shards=%d: %d messages delivered, want 4", shards, st.Events)
		}
		if shards == 2 && st.CrossMessages != 3 {
			t.Errorf("%d messages crossed the barrier, want 3 (two Posts and LP 1's send)", st.CrossMessages)
		}
	}
}

// sendPanics runs one Post-then-send protocol and reports whether the
// handler's send panicked. Only the seeding message (kind 0) triggers
// the send under test; whatever it delivers (kind 1) is inert, so a
// legal send terminates instead of ringing forever.
func sendPanics(cfg Config, send func(ctx *Ctx)) (panicked bool) {
	cfg.Handler = func(ctx *Ctx, m Message) {
		if m.Kind != 0 {
			return
		}
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		send(ctx)
	}
	r := MustNew(cfg)
	r.Post(0, 0, 0, 0)
	r.Run()
	return panicked
}

// TestSendContracts checks the delivery-order preconditions fail
// loudly: zero-delay inter-LP sends, cross-shard sends under the
// lookahead, cross-shard sends with no lookahead at all, and kinds an
// inbox cannot hold, sent or posted.
func TestSendContracts(t *testing.T) {
	if !sendPanics(Config{LPs: 2, Shards: 1, Lookahead: 10},
		func(ctx *Ctx) { ctx.Send(1, 0, 1, 0) }) {
		t.Error("zero-delay inter-LP send did not panic")
	}
	if !sendPanics(Config{LPs: 2, Shards: 2, Lookahead: 10},
		func(ctx *Ctx) { ctx.Send(1, 5, 1, 0) }) {
		t.Error("cross-shard send below the lookahead did not panic")
	}
	if !sendPanics(Config{LPs: 2, Shards: 2},
		func(ctx *Ctx) { ctx.Send(1, 100, 1, 0) }) {
		t.Error("cross-shard send with zero lookahead did not panic")
	}
	if sendPanics(Config{LPs: 2, Shards: 2, Lookahead: 10},
		func(ctx *Ctx) { ctx.Send(1, 10, 1, 0) }) {
		t.Error("legal cross-shard send at exactly the lookahead panicked")
	}
	for _, kind := range []int32{-1, maxKind + 1} {
		if !sendPanics(Config{LPs: 2, Shards: 1},
			func(ctx *Ctx) { ctx.Send(1, 1, kind, 0) }) {
			t.Errorf("send of kind %d did not panic", kind)
		}
		r := MustNew(Config{LPs: 1, Handler: func(*Ctx, Message) {}})
		if msg := panicText(func() { r.Post(0, 0, kind, 0) }); !strings.Contains(msg, "kind") {
			t.Errorf("Post of kind %d: panic %q, want one naming the kind", kind, msg)
		}
	}
	if sendPanics(Config{LPs: 2, Shards: 1},
		func(ctx *Ctx) { ctx.Send(1, 1, maxKind, 0) }) {
		t.Errorf("send of kind %d panicked", maxKind)
	}
}

// TestConfigErrors checks New's validation.
func TestConfigErrors(t *testing.T) {
	h := func(*Ctx, Message) {}
	for _, cfg := range []Config{
		{LPs: 0, Handler: h},
		{LPs: 4},
		{LPs: 4, Handler: h, Lookahead: -1},
		{LPs: 4, Shards: 2, Handler: h, ShardOf: func(int) int { return 7 }},
		{LPs: maxLPs + 1, Handler: h},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) succeeded, want error", cfg)
		}
	}
}

// TestPostAfterRun checks late seeding panics.
func TestPostAfterRun(t *testing.T) {
	r := MustNew(Config{LPs: 1, Handler: func(*Ctx, Message) {}})
	r.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("Post after Run did not panic")
		}
	}()
	r.Post(0, 0, 0, 0)
}

// TestMessageLayout pins the sizes the per-LP state is budgeted on: a
// 32-byte Message, as handlers and outboxes see it, a 24-byte in-box
// message, and a 232-byte lpBox holding eight of them; and checks that
// a message with the largest Src and Kind is delivered from its inbox
// as filed.
func TestMessageLayout(t *testing.T) {
	var got Message
	r := MustNew(Config{LPs: 1, Handler: func(_ *Ctx, m Message) { got = m }})
	want := Message{At: 1 << 40, Seq: math.MaxUint32, Src: maxLPs - 1, Kind: maxKind, Data: -1}
	r.boxes[0].push(boxed(want))
	r.Run()
	if got != want {
		t.Errorf("%+v comes out of an inbox as %+v", want, got)
	}
	if got := unsafe.Sizeof(Message{}); got != 32 {
		t.Errorf("Message is %d bytes, want 32", got)
	}
	if got := unsafe.Sizeof(boxMsg{}); got != 24 {
		t.Errorf("boxMsg is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(lpBox{}); got != 232 {
		t.Errorf("lpBox is %d bytes, want 232", got)
	}
}

// TestInboxSpill checks an inbox that must hold more messages than its
// slots: LP 0 is posted three times its slot count, latest first, with
// kinds up to 255, and each delivery at t=2 sends itself a zero-delay
// message while the box is spilled. Delivery must follow (At, Seq)
// order with every field intact, at one shard and at two.
func TestInboxSpill(t *testing.T) {
	const posts = 3 * boxSlots
	for _, shards := range []int{1, 2} {
		var got []Message
		r := MustNew(Config{
			LPs: 2, Shards: shards, Lookahead: 1,
			Handler: func(ctx *Ctx, m Message) {
				if ctx.LP() != 0 {
					return
				}
				got = append(got, m)
				if m.At == 2 && m.Kind != 0 {
					ctx.Send(0, 0, 0, m.Data)
				}
			},
		})
		for i := posts - 1; i >= 0; i-- {
			r.Post(0, sim.Time(i%3), int32(255-i), int64(i))
		}
		if r.boxes[0].spill == nil {
			t.Fatalf("shards=%d: %d pending messages did not spill", shards, posts)
		}
		r.Run()
		var want []Message
		for at := sim.Time(0); at < 3; at++ {
			for i := posts - 1; i >= 0; i-- {
				if sim.Time(i%3) != at {
					continue
				}
				want = append(want, Message{At: at, Seq: uint32(posts - i), Kind: int32(255 - i), Data: int64(i)})
			}
			if at == 2 {
				// The self-sends, in send order after the Posts of t=2.
				n := len(want)
				for _, m := range want[n-posts/3 : n] {
					want = append(want, Message{At: 2, Seq: uint32(posts + len(want) - n + 1), Data: m.Data})
				}
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("shards=%d: delivered\n%v\nwant\n%v", shards, got, want)
		}
	}
}

// panicText runs f and returns what it panicked with, or "" when it
// returned.
func panicText(f func()) (msg string) {
	defer func() {
		if p := recover(); p != nil {
			msg = fmt.Sprint(p)
		}
	}()
	f()
	return ""
}

// TestSendSeqWrapPanics checks an LP whose send counter is at its
// maximum cannot send again, since its next Seq would wrap to 0 and
// sort before everything it sent earlier: Ctx.Send and Post both
// panic, naming the LP.
func TestSendSeqWrapPanics(t *testing.T) {
	r := MustNew(Config{LPs: 2, Shards: 1, Handler: func(ctx *Ctx, m Message) {
		if m.Kind == 0 {
			ctx.Send(1, sim.Nanosecond, 1, 0)
		}
	}})
	r.Post(0, 0, 0, 0)
	r.boxes[0].sendSeq = math.MaxUint32
	if msg := panicText(r.Run); !strings.Contains(msg, "LP 0 ") {
		t.Errorf("Send from a full counter: panic %q, want one naming LP 0", msg)
	}
	r = MustNew(Config{LPs: 3, Handler: func(*Ctx, Message) {}})
	r.boxes[2].sendSeq = math.MaxUint32
	if msg := panicText(func() { r.Post(2, 0, 0, 0) }); !strings.Contains(msg, "LP 2 ") {
		t.Errorf("Post from a full counter: panic %q, want one naming LP 2", msg)
	}
}
