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

// runMessages posts msgs on n, each through Transfer or
// TransferGPUDirect with one OnFireArg registered on the returned
// signal, runs the engine, and returns the arrival log with times
// relative to the start of the pass.
func runMessages(n *Network, msgs []message) []arrival {
	e := n.Engine()
	t0 := e.Now()
	var log []arrival
	for i, m := range msgs {
		arg := unsafe.Pointer(&probe{id: i, log: &log})
		e.Schedule(m.post, func() {
			ready := sim.FiredSignal()
			if m.readyIn > 0 {
				ready = e.NewSignal()
				e.FireAt(e.Now()+m.readyIn, ready)
			}
			if m.direct {
				n.TransferGPUDirect(m.src, m.dst, m.bytes, ready).OnFireArg(e, probeFire, arg)
			} else {
				n.Transfer(m.src, m.dst, m.bytes, ready).OnFireArg(e, probeFire, arg)
			}
		})
	}
	e.Run()
	for i := range log {
		log[i].at -= t0
	}
	return log
}

// restart gives n the model state of a new network — fresh jitter and
// routing streams, no routing penalties; every pipe and link is idle
// once a pass has run — while it keeps its recycled records.
func restart(n *Network) {
	if n.rng != nil {
		n.rng = sim.NewRNG(n.cfg.JitterSeed)
	}
	if f := n.fabric; f != nil {
		f.router = f.newRouter(f.cfg.Routing, n.cfg.JitterSeed)
	}
}

// TestRecycledTransfersRepeatFreshOnes runs one randomized message set
// twice on one network: the first pass on fresh records, the second on
// the records the first recycled. Both passes must run each message's
// callback at the same offset and in the same order, through the same
// number of events and with the same traffic counters — with jitter,
// whose RNG draws follow the event order, and on a dragonfly fabric
// whose adaptive router picks each route at fire time from the
// congestion so far — and the second pass must allocate no transfer,
// GPUDirect gate or count record (the gatcheck build, which never
// reuses a record, checks the passes only).
func TestRecycledTransfersRepeatFreshOnes(t *testing.T) {
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
			cfg := testConfig()
			cfg.JitterFrac, cfg.JitterSeed = c.jitter, 11
			var n *Network
			if c.routing == "" {
				n = New(sim.NewEngine(), cfg, nodes)
			} else {
				cfg.Topology = TopoDragonfly
				n = New(sim.NewEngine(), cfg, nodes)
				fc := fabricConfig()
				fc.UplinksPerPod, fc.Routing = 2, c.routing
				n.EnableFabric(fc)
			}
			msgs := randomMessages(5, nodes, count, cfg.RendezvousThreshold)
			e := n.Engine()

			fresh := runMessages(n, msgs)
			events, msgsMoved, bytes := e.EventsExecuted(), n.Messages(), n.BytesMoved()
			xfers, gates, counts := n.xferFree.Len(), n.gdFree.Len(), n.countFree.Len()
			if sim.Recycles && (xfers == 0 || gates == 0 || counts == 0) {
				t.Fatalf("free lists hold %d transfer, %d GPUDirect and %d count records after the first pass, want each > 0",
					xfers, gates, counts)
			}

			restart(n)
			reused := runMessages(n, msgs)
			if len(fresh) != count || len(reused) != count {
				t.Fatalf("fresh pass logged %d arrivals, recycled pass %d, want %d each", len(fresh), len(reused), count)
			}
			for i := range fresh {
				if reused[i] != fresh[i] {
					t.Fatalf("arrival %d: recycled pass ran message %d at +%v, fresh pass message %d at +%v",
						i, reused[i].id, reused[i].at, fresh[i].id, fresh[i].at)
				}
			}
			if got := e.EventsExecuted() - events; got != events {
				t.Fatalf("recycled pass ran %d events, fresh pass %d", got, events)
			}
			if m, b := n.Messages()-msgsMoved, n.BytesMoved()-bytes; m != msgsMoved || b != bytes {
				t.Fatalf("recycled pass counted %d messages / %d bytes, fresh pass %d / %d", m, b, msgsMoved, bytes)
			}
			if n.xferFree.Len() != xfers || n.gdFree.Len() != gates || n.countFree.Len() != counts {
				t.Fatalf("free lists hold %d/%d/%d transfer/GPUDirect/count records after the recycled pass, %d/%d/%d after the fresh one: the second pass allocated records",
					n.xferFree.Len(), n.gdFree.Len(), n.countFree.Len(), xfers, gates, counts)
			}
		})
	}
}
