package comm

import (
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"

	"gat/internal/netsim"
	"gat/internal/sim"
)

func testNet(e *sim.Engine, nodes int) *netsim.Network {
	cfg := netsim.Config{
		LatencyBase:         100,
		LatencyPerHop:       10,
		InjectionBW:         1e9,
		IntraNodeBW:         1e9,
		IntraNodeLatency:    50,
		GPUDirectOverhead:   5,
		RendezvousThreshold: 1000,
		PodSize:             2,
	}
	return netsim.New(e, cfg, nodes)
}

// call wraps fn as a receive completion, so a test can record what
// happens with a closure.
func call(fn func()) *Completion {
	return &Completion{Fn: callFn, Arg: unsafe.Pointer(&fn)}
}

func callFn(_ *sim.Engine, arg unsafe.Pointer) { (*(*func())(arg))() }

func TestChannelSendThenRecv(t *testing.T) {
	e := sim.NewEngine()
	n := testNet(e, 2)
	ch := NewChannel(n, Endpoint{Proc: 0, Node: 0}, Endpoint{Proc: 1, Node: 1})
	var sendAt, recvAt sim.Time = -1, -1
	sent := sim.NewSignal()
	sent.OnFire(e, func() { sendAt = e.Now() })
	ch.Send(0, 7, 500, sim.FiredSignal(), sent)
	e.Schedule(50, func() {
		ch.Recv(1, 7, call(func() { recvAt = e.Now() }))
	})
	e.Run()
	// Matched at 50; eager (500 < 1000): overhead 5, tx 55..555,
	// rx 165..665.
	if recvAt != 665 || sendAt != 665 {
		t.Fatalf("sendAt=%v recvAt=%v, want 665/665", sendAt, recvAt)
	}
}

func TestChannelRecvThenSend(t *testing.T) {
	e := sim.NewEngine()
	n := testNet(e, 2)
	ch := NewChannel(n, Endpoint{Proc: 0, Node: 0}, Endpoint{Proc: 1, Node: 1})
	var recvAt sim.Time = -1
	ch.Recv(1, 3, call(func() { recvAt = e.Now() }))
	if ch.PendingRecvs() != 1 {
		t.Fatalf("pending recvs = %d, want 1", ch.PendingRecvs())
	}
	e.Schedule(100, func() {
		ch.Send(0, 3, 500, sim.FiredSignal(), nil)
	})
	e.Run()
	if recvAt != 715 { // matched at 100: 5 + 500 tx + 110 lat + rx
		t.Fatalf("recvAt = %v, want 715", recvAt)
	}
	if ch.PendingRecvs() != 0 || ch.PendingSends() != 0 {
		t.Fatal("pending counts should drain to zero")
	}
}

func TestChannelTagMatching(t *testing.T) {
	e := sim.NewEngine()
	n := testNet(e, 2)
	ch := NewChannel(n, Endpoint{Proc: 0, Node: 0}, Endpoint{Proc: 1, Node: 1})
	var got []int
	ch.Recv(1, 2, call(func() { got = append(got, 2) }))
	ch.Recv(1, 1, call(func() { got = append(got, 1) }))
	// Send tag 1 first: only the tag-1 recv completes first even though
	// the tag-2 recv was posted earlier.
	ch.Send(0, 1, 100, sim.FiredSignal(), nil)
	e.Schedule(5000, func() { ch.Send(0, 2, 100, sim.FiredSignal(), nil) })
	e.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("completion order = %v, want [1 2]", got)
	}
}

func TestChannelBidirectional(t *testing.T) {
	e := sim.NewEngine()
	n := testNet(e, 2)
	ch := NewChannel(n, Endpoint{Proc: 0, Node: 0}, Endpoint{Proc: 1, Node: 1})
	done := 0
	ch.Send(0, 1, 100, sim.FiredSignal(), nil)
	ch.Recv(1, 1, call(func() { done++ }))
	ch.Send(1, 1, 100, sim.FiredSignal(), nil)
	ch.Recv(0, 1, call(func() { done++ }))
	e.Run()
	if done != 2 {
		t.Fatalf("bidirectional completions = %d, want 2", done)
	}
	if ch.Completed() != 2 {
		t.Fatalf("Completed = %d, want 2", ch.Completed())
	}
}

func TestChannelDataGatedOnReady(t *testing.T) {
	e := sim.NewEngine()
	n := testNet(e, 2)
	ch := NewChannel(n, Endpoint{Proc: 0, Node: 0}, Endpoint{Proc: 1, Node: 1})
	packed := sim.NewSignal()
	var recvAt sim.Time
	ch.Recv(1, 0, call(func() { recvAt = e.Now() }))
	ch.Send(0, 0, 100, packed, nil)
	e.Schedule(1000, func() { packed.Fire(e) })
	e.Run()
	if recvAt != 1000+5+100+110 {
		t.Fatalf("recvAt = %v, want 1215 (gated on packing)", recvAt)
	}
}

func TestChannelSameProcPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("same-proc channel did not panic")
		}
	}()
	e := sim.NewEngine()
	NewChannel(testNet(e, 2), Endpoint{Proc: 0}, Endpoint{Proc: 0})
}

func TestChannelForeignProcPanics(t *testing.T) {
	e := sim.NewEngine()
	ch := NewChannel(testNet(e, 2), Endpoint{Proc: 0, Node: 0}, Endpoint{Proc: 1, Node: 1})
	defer func() {
		if recover() == nil {
			t.Error("foreign proc did not panic")
		}
	}()
	ch.Send(5, 0, 10, sim.FiredSignal(), nil)
}

func TestMessagingAPISlowerThanChannel(t *testing.T) {
	// The metadata round of the GPU Messaging API must cost extra
	// latency relative to the Channel API.
	channelTime := func() sim.Time {
		e := sim.NewEngine()
		n := testNet(e, 2)
		ch := NewChannel(n, Endpoint{Proc: 0, Node: 0}, Endpoint{Proc: 1, Node: 1})
		var at sim.Time
		ch.Recv(1, 0, call(func() { at = e.Now() }))
		ch.Send(0, 0, 500, sim.FiredSignal(), nil)
		e.Run()
		return at
	}()
	messagingTime := func() sim.Time {
		e := sim.NewEngine()
		n := testNet(e, 2)
		var at sim.Time
		MessagingSend(n, DefaultMessagingConfig(),
			Endpoint{Proc: 0, Node: 0}, Endpoint{Proc: 1, Node: 1},
			500, sim.FiredSignal(), call(func() { at = e.Now() }))
		e.Run()
		return at
	}()
	if messagingTime <= channelTime {
		t.Fatalf("messaging API (%v) should be slower than channel API (%v)",
			messagingTime, channelTime)
	}
}

// Property: for any interleaving of N sends and N recvs with matching
// tags, every recv completes exactly once.
func TestChannelMatchingProperty(t *testing.T) {
	f := func(order []bool, n uint8) bool {
		count := int(n)%8 + 1
		e := sim.NewEngine()
		net := testNet(e, 2)
		ch := NewChannel(net, Endpoint{Proc: 0, Node: 0}, Endpoint{Proc: 1, Node: 1})
		completed := make(map[int]int)
		sends, recvs := 0, 0
		step := 0
		post := func(sendNext bool) {
			if sendNext && sends < count {
				tag := sends
				ch.Send(0, tag, 64, sim.FiredSignal(), nil)
				sends++
			} else if recvs < count {
				tag := recvs
				ch.Recv(1, tag, call(func() { completed[tag]++ }))
				recvs++
			}
		}
		for sends < count || recvs < count {
			sendNext := sends < count
			if recvs < count && step < len(order) && !order[step] {
				sendNext = false
			}
			post(sendNext)
			step++
		}
		e.Run()
		if len(completed) != count {
			return false
		}
		for _, c := range completed {
			if c != 1 {
				return false
			}
		}
		return ch.PendingSends() == 0 && ch.PendingRecvs() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestChannelSteadyStateAllocs checks that a channel carrying batch
// after batch of matched messages stops allocating: the post and match
// records, the GPUDirect gates and the transfer records are recycled as
// each message arrives, so memory tracks the messages in flight rather
// than the messages sent. It covers the eager and rendezvous inter-node
// paths and the intra-node path.
func TestChannelSteadyStateAllocs(t *testing.T) {
	if !sim.Recycles {
		t.Skip("the gatcheck build allocates every record afresh")
	}
	const warmup, measured, perBatch = 64, 256, 64
	cases := []struct {
		name  string
		b     Endpoint
		bytes int64
	}{
		{"inter-eager", Endpoint{Proc: 1, Node: 1}, 500},
		{"inter-rendezvous", Endpoint{Proc: 1, Node: 1}, 4000},
		{"intra", Endpoint{Proc: 1, Node: 0}, 4000},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := sim.NewEngine()
			a := Endpoint{Proc: 0, Node: 0}
			ch := NewChannel(testNet(e, 2), a, c.b)
			received := 0
			recvDone := call(func() { received++ })
			batch := func() {
				for tag := 0; tag < perBatch; tag++ {
					ch.Send(a.Proc, tag, c.bytes, sim.FiredSignal(), nil)
					ch.Recv(c.b.Proc, tag, recvDone)
				}
				e.Run()
			}
			for i := 0; i < warmup; i++ {
				batch()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < measured; i++ {
				batch()
			}
			runtime.ReadMemStats(&after)
			if want := (warmup + measured) * perBatch; received != want {
				t.Fatalf("received %d messages, want %d", received, want)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
				t.Fatalf("%d batches of %d messages allocated %d bytes after warm-up, want <= 64 KiB", measured, perBatch, got)
			}
		})
	}
}

// TestPostsShared checks that channels made from one Posts recycle each
// other's records: the sends a batch on one channel left banked are the
// records the same batch on a second channel takes.
func TestPostsShared(t *testing.T) {
	if !sim.Recycles {
		t.Skip("the gatcheck build allocates every record afresh")
	}
	const n = 8
	e := sim.NewEngine()
	net := testNet(e, 2)
	var ps Posts
	received := 0
	done := call(func() { received++ })
	for i, ch := range []*Channel{
		ps.NewChannel(net, Endpoint{Proc: 0, Node: 0}, Endpoint{Proc: 1, Node: 1}),
		ps.NewChannel(net, Endpoint{Proc: 2, Node: 0}, Endpoint{Proc: 3, Node: 1}),
	} {
		src := 2 * i
		for tag := 0; tag < n; tag++ {
			ch.Send(src, tag, 64, sim.FiredSignal(), nil)
		}
		if i > 0 && ps.free.Len() != 0 {
			t.Fatalf("channel %d's %d sends left %d of the first channel's records banked, want 0", i, n, ps.free.Len())
		}
		for tag := 0; tag < n; tag++ {
			ch.Recv(src+1, tag, done)
		}
		e.Run()
		if ps.free.Len() != n {
			t.Fatalf("channel %d: %d records banked after %d matched messages, want %d", i, ps.free.Len(), n, n)
		}
	}
	if received != 2*n {
		t.Fatalf("received %d messages, want %d", received, 2*n)
	}
}
