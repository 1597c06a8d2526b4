package netsim

import (
	"testing"
	"unsafe"

	"gat/internal/sim"
)

// arrival is one run of a message's completion callback.
type arrival struct {
	at sim.Time
	id int
}

// probe is the callback record of one message.
type probe struct {
	id  int
	log *[]arrival
}

// probeFire logs the message's arrival.
func probeFire(e *sim.Engine, arg unsafe.Pointer) {
	p := (*probe)(arg)
	*p.log = append(*p.log, arrival{at: e.Now(), id: p.id})
}

// message is one transfer of the randomized equivalence workload.
type message struct {
	post     sim.Time // when the transfer is posted
	readyIn  sim.Time // ready fires this long after the post; 0: already fired
	src, dst int
	bytes    int64
	direct   bool // the GPUDirect path
}

// randomMessages draws count messages over nodes nodes: a quarter
// intra-node, half GPUDirect, sizes on both sides of the rendezvous
// threshold, and half with a ready signal that fires after the post.
func randomMessages(seed uint64, nodes, count int, threshold int64) []message {
	rng := sim.NewRNG(seed)
	msgs := make([]message, count)
	for i := range msgs {
		m := message{
			post:   sim.Time(rng.Intn(20000)),
			src:    rng.Intn(nodes),
			bytes:  1 + int64(rng.Intn(int(3*threshold))),
			direct: rng.Intn(2) == 0,
		}
		m.dst = rng.Intn(nodes)
		if rng.Intn(4) == 0 {
			m.dst = m.src
		}
		if rng.Intn(2) == 0 {
			m.readyIn = sim.Time(1 + rng.Intn(3000))
		}
		msgs[i] = m
	}
	return msgs
}

// runMessages posts msgs on n, through the signal forms with one
// OnFireArg registered right after each call or through the callback
// forms, runs the engine, and returns the arrival log.
func runMessages(n *Network, msgs []message, callbackForm bool) []arrival {
	e := n.Engine()
	var log []arrival
	for i, m := range msgs {
		arg := unsafe.Pointer(&probe{id: i, log: &log})
		e.Schedule(m.post, func() {
			ready := sim.FiredSignal()
			if m.readyIn > 0 {
				ready = e.NewSignal()
				e.FireAt(e.Now()+m.readyIn, ready)
			}
			switch {
			case callbackForm && m.direct:
				n.TransferGPUDirectArg(m.src, m.dst, m.bytes, ready, probeFire, arg)
			case callbackForm:
				n.TransferArg(m.src, m.dst, m.bytes, ready, probeFire, arg)
			case m.direct:
				n.TransferGPUDirect(m.src, m.dst, m.bytes, ready).OnFireArg(e, probeFire, arg)
			default:
				n.Transfer(m.src, m.dst, m.bytes, ready).OnFireArg(e, probeFire, arg)
			}
		})
	}
	e.Run()
	return log
}

// TestCallbackFormsMatchSignalForms checks that TransferArg and
// TransferGPUDirectArg run each message's callback at the same instant
// and in the same order, through the same number of events and with the
// same traffic counters, as Transfer and TransferGPUDirect followed by
// OnFireArg — with jitter, whose RNG draws follow the event order, and
// on a dragonfly fabric whose adaptive router picks each route at fire
// time from the congestion so far — and that the callback forms carve
// no pinned transfer record.
func TestCallbackFormsMatchSignalForms(t *testing.T) {
	cases := []struct {
		name    string
		jitter  float64
		routing string // "" for the NIC-only fat tree
	}{
		{"fattree", 0, ""},
		{"fattree-jitter", 0.2, ""},
		{"dragonfly-adaptive-jitter", 0.2, RoutingAdaptive},
	}
	const nodes, count = 8, 400
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			build := func() *Network {
				cfg := testConfig()
				cfg.JitterFrac, cfg.JitterSeed = c.jitter, 11
				if c.routing == "" {
					return New(sim.NewEngine(), cfg, nodes)
				}
				cfg.Topology = TopoDragonfly
				n := New(sim.NewEngine(), cfg, nodes)
				fc := fabricConfig()
				fc.UplinksPerPod, fc.Routing = 2, c.routing
				n.EnableFabric(fc)
				return n
			}
			msgs := randomMessages(5, nodes, count, testConfig().RendezvousThreshold)
			ns, nc := build(), build()
			want := runMessages(ns, msgs, false)
			got := runMessages(nc, msgs, true)
			if len(want) != count || len(got) != count {
				t.Fatalf("signal forms logged %d arrivals, callback forms %d, want %d each", len(want), len(got), count)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("arrival %d: callback forms ran message %d at %v, signal forms message %d at %v",
						i, got[i].id, got[i].at, want[i].id, want[i].at)
				}
			}
			if a, b := ns.Engine().EventsExecuted(), nc.Engine().EventsExecuted(); a != b {
				t.Fatalf("callback forms ran %d events, signal forms %d", b, a)
			}
			if ns.Messages() != nc.Messages() || ns.BytesMoved() != nc.BytesMoved() {
				t.Fatalf("callback forms counted %d messages / %d bytes, signal forms %d / %d",
					nc.Messages(), nc.BytesMoved(), ns.Messages(), ns.BytesMoved())
			}
			if got := nc.xferOps.Allocated(); got != 0 {
				t.Fatalf("callback forms carved %d pinned transfer records, want 0", got)
			}
			if nc.xferFree.Len() == 0 || nc.gdFree.Len() == 0 || nc.countFree.Len() == 0 {
				t.Fatalf("free lists hold %d transfer, %d GPUDirect and %d count records after the run, want each > 0",
					nc.xferFree.Len(), nc.gdFree.Len(), nc.countFree.Len())
			}
		})
	}
}
