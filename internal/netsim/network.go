// Package netsim models the cluster interconnect: per-node NIC injection
// ports, an α–β latency/bandwidth wire model with fat-tree hop counts,
// an intra-node peer path, and the message protocols that matter to
// GPU-aware communication — eager, rendezvous, GPUDirect RDMA, and the
// pipelined host-staging fallback that IBM Spectrum MPI applies to large
// device buffers (the protocol change observed in the paper's Fig 7a).
package netsim

import (
	"fmt"
	"unsafe"

	"gat/internal/sim"
)

// Config is the interconnect cost model.
type Config struct {
	// LatencyBase is the end-to-end wire latency for a minimal message.
	LatencyBase sim.Time
	// LatencyPerHop is added per switch hop beyond the first.
	LatencyPerHop sim.Time
	// InjectionBW is the per-node NIC bandwidth in bytes/s, applied
	// independently to the send (tx) and receive (rx) sides.
	InjectionBW float64
	// NICOverhead is the fixed NIC occupancy per message.
	NICOverhead sim.Time
	// IntraNodeBW is the bandwidth of the intra-node peer path
	// (NVLink / shared memory) in bytes/s.
	IntraNodeBW float64
	// IntraNodeLatency is the fixed latency of an intra-node transfer.
	IntraNodeLatency sim.Time
	// GPUDirectOverhead is the extra per-message cost of registering a
	// device buffer for RDMA.
	GPUDirectOverhead sim.Time
	// RendezvousThreshold is the message size at and above which a
	// ready-to-send/clear-to-send handshake (one extra RTT) precedes the
	// data, as in UCX and MPI rendezvous protocols.
	RendezvousThreshold int64
	// PipelineChunkOverhead is the per-chunk protocol cost (pinned
	// buffer management, progress-engine work) of the pipelined
	// host-staging path used by Spectrum MPI for large device buffers.
	PipelineChunkOverhead sim.Time
	// PipelineChunkSize is the chunk granularity of that path.
	PipelineChunkSize int64
	// PodSize is the number of nodes per switch group — the leaf pod of
	// a fat tree, the router group of a dragonfly — used for hop
	// counting and for attaching the detailed fabric's shared links.
	PodSize int
	// Topology selects the switch geometry by registry name
	// (TopologyByName): "" or "fattree" is the two-level fat tree the
	// calibrated Summit model always used; "dragonfly" models
	// group-local vs. global links for Slingshot-class machines;
	// "torus" a 3-D torus of cabinets with dimension-order minimal
	// routes; "slimfly" a diameter-2 slim-fly-style group graph.
	Topology string
	// JitterFrac, when positive, perturbs each transfer's latency by a
	// uniform ±fraction drawn from a seeded RNG. It models the
	// run-to-run variability of a shared production fabric (the paper
	// observed 300–800 us swings for CUDA-aware Spectrum MPI on 64+
	// nodes, §IV-B). Zero keeps the network perfectly deterministic.
	JitterFrac float64
	// JitterSeed seeds the jitter RNG and the random stream of the
	// valiant and adaptive routers; runs with equal seeds are
	// reproducible even with jitter enabled. ReadsSeed says when a
	// network reads it at all.
	JitterSeed uint64
}

// EffectivePodSize returns the switch-group size a network built from
// c lays its topology out with: PodSize, or 18 when it is unset.
// Everything that derives the topology from a Config without building a
// Network calls it too, so the two can never disagree.
func (c Config) EffectivePodSize() int {
	if c.PodSize > 0 {
		return c.PodSize
	}
	return 18
}

// ReadsSeed reports whether a network built from c, with the detailed
// fabric fab attached (nil for the NIC-only model), ever reads
// c.JitterSeed. It has exactly two readers: the jitter RNG New creates
// when JitterFrac > 0, and the random stream of the routers that draw
// one (routerDraws). When ReadsSeed is false, networks that differ
// only in JitterSeed simulate identically, so result caches may key
// them as one. A new reader of the seed must be added here.
func (c Config) ReadsSeed(fab *FabricConfig) bool {
	return c.JitterFrac > 0 || (fab != nil && routerDraws(fab.Routing))
}

// Summit returns an interconnect model calibrated to Summit's dual-rail
// EDR InfiniBand non-blocking fat tree (23 GB/s injection).
func Summit() Config {
	return Config{
		LatencyBase:           1600 * sim.Nanosecond,
		LatencyPerHop:         450 * sim.Nanosecond,
		InjectionBW:           23e9,
		NICOverhead:           900 * sim.Nanosecond,
		IntraNodeBW:           45e9,
		IntraNodeLatency:      1900 * sim.Nanosecond,
		GPUDirectOverhead:     400 * sim.Nanosecond,
		RendezvousThreshold:   64 << 10,
		PipelineChunkOverhead: 15 * sim.Microsecond,
		PipelineChunkSize:     1 << 20,
		PodSize:               18,
	}
}

// NIC is one node's network interface, with independent tx and rx ports.
type NIC struct {
	Node int
	TX   *sim.Pipe
	RX   *sim.Pipe
}

// Network is the cluster interconnect.
type Network struct {
	eng    *sim.Engine
	cfg    Config
	topo   Topology
	nics   []*NIC
	intra  []*sim.Pipe // per-node intra-node peer path
	rng    *sim.RNG    // jitter source; nil when JitterFrac == 0
	fabric *Fabric     // optional detailed shared fabric links

	// offered marks that Transfer has been called at least once; the
	// detailed fabric must be attached before that (EnableFabric).
	offered bool

	messages uint64
	bytes    int64

	// Free lists of the per-message records: transfer records return as
	// their arrival signal fires, GPUDirect gate and deferred-count
	// records as their last event runs, so their memory is bounded by
	// the messages in flight.
	xferFree  sim.FreeList[xferOp]
	gdFree    sim.FreeList[gdOp]
	countFree sim.FreeList[countOp]
}

// New builds a network connecting nodes nodes. An unknown
// Config.Topology name panics; machine.Config.Validate reports it as
// an error first for configurations built through the machine layer.
func New(e *sim.Engine, cfg Config, nodes int) *Network {
	if nodes <= 0 {
		panic("netsim: need at least one node")
	}
	cfg.PodSize = cfg.EffectivePodSize()
	topo, err := TopologyByName(cfg.Topology, cfg.PodSize, nodes)
	if err != nil {
		panic(err)
	}
	n := &Network{eng: e, cfg: cfg, topo: topo}
	if cfg.JitterFrac > 0 {
		n.rng = sim.NewRNG(cfg.JitterSeed)
	}
	for i := 0; i < nodes; i++ {
		n.nics = append(n.nics, &NIC{
			Node: i,
			TX:   sim.NewPipe(e, fmt.Sprintf("nic%d/tx", i), cfg.InjectionBW, cfg.NICOverhead),
			RX:   sim.NewPipe(e, fmt.Sprintf("nic%d/rx", i), cfg.InjectionBW, cfg.NICOverhead),
		})
		n.intra = append(n.intra, sim.NewPipe(e, fmt.Sprintf("node%d/intra", i), cfg.IntraNodeBW, cfg.IntraNodeLatency))
	}
	return n
}

// Nodes returns the number of nodes.
func (n *Network) Nodes() int { return len(n.nics) }

// Engine returns the simulation engine the network is attached to.
func (n *Network) Engine() *sim.Engine { return n.eng }

// Config returns the interconnect cost model.
func (n *Network) Config() Config { return n.cfg }

// NIC returns node i's NIC.
func (n *Network) NIC(i int) *NIC { return n.nics[i] }

// Messages returns the number of transfers that have started moving
// data (their ready signal fired): completed or in flight. Transfers
// scheduled behind a ready signal that has not fired — including runs
// truncated by RunUntil — are not counted.
func (n *Network) Messages() uint64 { return n.messages }

// BytesMoved returns the total bytes of the transfers counted by
// Messages: bytes whose movement has started, not merely been
// scheduled.
func (n *Network) BytesMoved() int64 { return n.bytes }

// Topology returns the switch geometry the network routes through.
func (n *Network) Topology() Topology { return n.topo }

// Fabric returns the detailed fabric, or nil when the NIC-only model
// is in effect.
func (n *Network) Fabric() *Fabric { return n.fabric }

// LinkUtilization returns the max and mean utilization over the
// detailed fabric's links, or zeros when no fabric is attached — the
// congestion summary experiments report per run.
func (n *Network) LinkUtilization() (max, mean float64) {
	if n.fabric == nil {
		return 0, 0
	}
	return n.fabric.UtilizationSummary()
}

// Hops returns the switch hop count between two nodes under the
// configured topology: 0 within a node, 2 within a switch group, and
// the topology's cross-group distance (4 for the fat tree, 3 for the
// dragonfly minimal route) otherwise.
func (n *Network) Hops(a, b int) int { return n.topo.Hops(a, b) }

// Latency returns the one-way wire latency between two nodes,
// including jitter when enabled. The deterministic base is the shared
// PathLatency model, so the PDES lookahead derivation prices routes
// exactly as instantiated transfers do.
func (n *Network) Latency(a, b int) sim.Time {
	base := PathLatency(n.cfg, n.topo, a, b)
	if n.rng != nil {
		return n.rng.Jitter(base, n.cfg.JitterFrac)
	}
	return base
}

// RTT returns the round-trip latency, used for rendezvous handshakes.
func (n *Network) RTT(a, b int) sim.Time { return 2 * n.Latency(a, b) }

// latencyForHops prices a route of the given switch hop count under
// the α–β model, including the jitter draw when enabled — the same
// pricing Latency applies to minimal paths, generalized to the routes
// non-minimal policies return.
func (n *Network) latencyForHops(h int) sim.Time {
	base := n.cfg.IntraNodeLatency
	if h > 0 {
		base = n.cfg.LatencyBase + sim.Time(h-1)*n.cfg.LatencyPerHop
	}
	if n.rng != nil {
		return n.rng.Jitter(base, n.cfg.JitterFrac)
	}
	return base
}

// RoutingName returns the active routing policy's registry name
// ("minimal", "valiant", "adaptive"), or "" when no detailed fabric is
// attached — the provenance string experiment reports carry per run.
func (n *Network) RoutingName() string {
	if n.fabric == nil {
		return ""
	}
	return n.fabric.router.Name()
}

// countOp defers the Messages/BytesMoved accounting of an intra-node
// transfer until its ready signal fires.
type countOp struct {
	n     *Network
	bytes int64
}

// countOpFire is the ArgFunc advancing the counters when a deferred
// intra-node transfer starts; the record is recycled at once.
//
//gat:hotpath
func countOpFire(_ *sim.Engine, arg unsafe.Pointer) {
	op := (*countOp)(arg)
	n := op.n
	n.messages++
	n.bytes += op.bytes
	n.countFree.Put(op)
}

// countIntra advances the counters for an intra-node transfer when it
// starts: now if ready has fired, else when it fires.
//
//gat:hotpath
func (n *Network) countIntra(bytes int64, ready *sim.Signal) {
	if ready.Fired() {
		// The dominant already-ready path: the transfer starts now, so
		// count now.
		n.messages++
		n.bytes += bytes
		return
	}
	op := n.countFree.Get()
	op.n = n
	op.bytes = bytes
	ready.OnFireArg(n.eng, countOpFire, unsafe.Pointer(op))
}

// xferOp is one pending inter-node transfer: the route waits in the
// record until ready fires, then the cut-through reservations are made
// at fire-time prices (NIC occupancy, fabric contention, jitter draw)
// and the arrival is scheduled. The op returns to the network's free
// list as arrived fires.
type xferOp struct {
	n        *Network
	src, dst int
	bytes    int64
	arrived  sim.Signal
}

// reserve makes op's reservations from now on and returns the instant
// its data has fully arrived.
//
//gat:hotpath
func (op *xferOp) reserve() sim.Time {
	n := op.n
	src, dst, bytes := op.src, op.dst, op.bytes
	n.messages++
	n.bytes += bytes
	txStart, _ := n.nics[src].TX.Reserve(n.eng.Now(), bytes)
	var rxEarliest, downEnd sim.Time
	if n.fabric != nil && n.topo.Group(src) != n.topo.Group(dst) {
		// Route choice happens here, at fire time, so adaptive policies
		// see the congestion this message would actually meet. The
		// route's hop count prices the wire latency (identical to
		// n.Latency for minimal routes, so pre-Router timelines hold).
		route := n.fabric.router.Route(src, dst)
		rxEarliest = txStart + n.latencyForHops(route.Hops)
		var downStart sim.Time
		downStart, downEnd = n.fabric.reserve(route, src, dst, bytes, txStart)
		if e := downStart + n.cfg.LatencyPerHop; e > rxEarliest {
			rxEarliest = e
		}
	} else {
		rxEarliest = txStart + n.Latency(src, dst)
	}
	_, rxEnd := n.nics[dst].RX.Reserve(rxEarliest, bytes)
	if e := downEnd + n.cfg.LatencyPerHop; e > rxEnd {
		rxEnd = e
	}
	return rxEnd
}

// xferOpStart is the ArgFunc run when an op's ready signal fires: it
// makes the reservations and schedules xferOpDone at the arrival
// instant.
//
//gat:hotpath
func xferOpStart(e *sim.Engine, arg unsafe.Pointer) {
	e.InjectAt((*xferOp)(arg).reserve(), xferOpDone, arg)
}

// xferOpDone completes an op: arrived fires, scheduling the caller's
// callbacks, and the op goes back to the free list.
//
//gat:hotpath
func xferOpDone(e *sim.Engine, arg unsafe.Pointer) {
	op := (*xferOp)(arg)
	n := op.n
	op.arrived.Fire(e)
	n.xferFree.Recycle(op, &op.arrived)
}

// Transfer moves bytes from node src to node dst, starting when ready
// fires, and returns a signal fired when the data has fully arrived.
// The path is cut-through: the receive side drains in parallel with
// injection, offset by the wire latency, so a large message occupies
// the network for size/bandwidth once, not twice. Intra-node transfers
// use the peer path instead of the NIC.
//
// The Messages/BytesMoved counters advance when the transfer starts
// (ready fires), not at schedule time, so truncated runs and
// never-fired ready signals do not overstate traffic.
//
// The returned signal is valid until it fires (see sim.Signal): the
// transfer's records return to free lists as the data arrives, so a
// run's transfer records are bounded by the messages in flight.
//
//gat:hotpath
func (n *Network) Transfer(src, dst int, bytes int64, ready *sim.Signal) *sim.Signal {
	n.offered = true
	if src == dst {
		n.countIntra(bytes, ready)
		return n.intra[src].TransferAfter(ready, bytes)
	}
	op := n.xferFree.Get()
	op.n = n
	op.src, op.dst, op.bytes = src, dst, bytes
	ready.OnFireArg(n.eng, xferOpStart, unsafe.Pointer(op))
	return &op.arrived
}

// gdOp carries one GPUDirect transfer's protocol gates: gate fires a
// handshake RTT after ready (rendezvous-sized messages only), gated
// fires the registration overhead after that. The RTT is computed when
// the gate event runs, not at schedule time, so the jitter RNG draw
// order matches the protocol order on the wire. No caller ever holds a
// pointer into the record, so it is recycled once gated has fired.
type gdOp struct {
	n        *Network
	src, dst int
	gate     sim.Signal
	gated    sim.Signal
}

// gdGateFire schedules the rendezvous gate one RTT out.
//
//gat:hotpath
func gdGateFire(_ *sim.Engine, arg unsafe.Pointer) {
	op := (*gdOp)(arg)
	op.n.eng.FireAt(op.n.eng.Now()+op.n.RTT(op.src, op.dst), &op.gate)
}

// gdOverheadFire schedules the registration-complete gate.
//
//gat:hotpath
func gdOverheadFire(_ *sim.Engine, arg unsafe.Pointer) {
	op := (*gdOp)(arg)
	op.n.eng.InjectAt(op.n.eng.Now()+op.n.cfg.GPUDirectOverhead, gdGatedFire, arg)
}

// gdGatedFire opens the data gate in the event FireAt(&op.gated) would
// push and recycles the op: firing gated queues the transfer's start
// with the transfer's own records, so nothing references the op after.
//
//gat:hotpath
func gdGatedFire(e *sim.Engine, arg unsafe.Pointer) {
	op := (*gdOp)(arg)
	op.gated.Fire(e)
	op.n.gdFree.Put(op)
}

// gpuDirectGate returns a signal that fires when a GPUDirect message of
// bytes may start moving data after ready: the registration overhead
// later, preceded by a handshake RTT for rendezvous-sized messages.
//
//gat:hotpath
func (n *Network) gpuDirectGate(src, dst int, bytes int64, ready *sim.Signal) *sim.Signal {
	op := n.gdFree.Get()
	op.n = n
	op.src, op.dst = src, dst
	start := ready
	if bytes >= n.cfg.RendezvousThreshold && src != dst {
		ready.OnFireArg(n.eng, gdGateFire, unsafe.Pointer(op))
		start = &op.gate
	}
	start.OnFireArg(n.eng, gdOverheadFire, unsafe.Pointer(op))
	return &op.gated
}

// TransferGPUDirect is Transfer plus the device-buffer registration
// overhead, and, for rendezvous-sized messages, a handshake RTT before
// the data moves. This is the UCX/GPUDirect path used by the Charm++
// Channel API and by CUDA-aware MPI below its pipelining threshold.
//
//gat:hotpath
func (n *Network) TransferGPUDirect(src, dst int, bytes int64, ready *sim.Signal) *sim.Signal {
	return n.Transfer(src, dst, bytes, n.gpuDirectGate(src, dst, bytes, ready))
}
