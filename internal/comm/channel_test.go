package comm

import (
	"testing"
	"testing/quick"

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

func TestChannelSendThenRecv(t *testing.T) {
	e := sim.NewEngine()
	n := testNet(e, 2)
	ch := NewChannel(n, Endpoint{Proc: 0, Node: 0}, Endpoint{Proc: 1, Node: 1})
	var sendAt, recvAt sim.Time = -1, -1
	sent := sim.NewSignal()
	sent.OnFire(e, func() { sendAt = e.Now() })
	ch.Send(0, 7, 500, sim.FiredSignal(), sent)
	e.Schedule(50, func() {
		ch.Recv(1, 7, func() { recvAt = e.Now() })
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
	ch.Recv(1, 3, func() { recvAt = e.Now() })
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
	ch.Recv(1, 2, func() { got = append(got, 2) })
	ch.Recv(1, 1, func() { got = append(got, 1) })
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
	ch.Recv(1, 1, func() { done++ })
	ch.Send(1, 1, 100, sim.FiredSignal(), nil)
	ch.Recv(0, 1, func() { done++ })
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
	ch.Recv(1, 0, func() { recvAt = e.Now() })
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
		ch.Recv(1, 0, func() { at = e.Now() })
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
			500, sim.FiredSignal(), func() { at = e.Now() })
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
				ch.Recv(1, tag, func() { completed[tag]++ })
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
