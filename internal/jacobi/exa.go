// Exascale-scale Jacobi3D on the conservative parallel-in-run layer.
//
// The full-machine variants in this package simulate every kernel
// launch, DMA and NIC reservation on one engine — faithful, but serial
// and O(events) in GPU detail, which caps practical sweeps around a
// few hundred nodes. RunExa asks the paper's weak-scaling question at
// 10k+ nodes instead: each node is one pdes logical process with an
// aggregate roofline cost model (node compute from GPU memory
// bandwidth, halo exchange from the α–β wire model), so the event
// count is O(nodes · iterations · faces) and the run partitions
// across engine shards with the topology-derived lookahead.
//
// The model answers the overlap question structurally: the Blocking
// series sends halos only when the whole update finishes (transit
// fully exposed), the Overlap series computes boundary cells first,
// sends halos, and overlaps the interior update with their flight —
// the §III-C design point, reduced to its timing skeleton.
package jacobi

import (
	"fmt"
	"math"
	"slices"

	"gat/internal/machine"
	"gat/internal/netsim"
	"gat/internal/pdes"
	"gat/internal/sim"
)

// ExaOpts tunes an exascale LP-model run.
type ExaOpts struct {
	// Shards is the parallel-in-run shard count (<= 1 means serial).
	// Results are byte-identical at any value.
	Shards int
	// Overlap selects the boundary-first overlapped schedule instead of
	// the blocking one.
	Overlap bool
}

// ExaResult is the outcome of one LP-model run. All fields except the
// partition diagnostics (Shards, Windows, CrossMessages, Lookahead) are
// independent of ExaOpts.Shards.
type ExaResult struct {
	// TimePerIter is the average time per timed iteration, measured
	// between the global completions of the warmup boundary and the
	// final iteration.
	TimePerIter sim.Time
	// Total is the completion time of the last iteration on any node.
	Total sim.Time
	// Events is the number of delivered messages, summed over shards;
	// partition-independent. The engine events behind them are fewer:
	// pdes delivers all of an LP's messages at one instant in one event.
	Events uint64
	// NetBytes and NetMsgs count the halo traffic sent: each node's
	// halo bytes and face neighbors, once per iteration but the last.
	NetBytes int64
	NetMsgs  uint64
	// Shards is the effective shard count (groups bound it); Windows
	// and CrossMessages the lookahead-window diagnostics, and Lookahead
	// the derived window bound. Partition-dependent: diagnostics only,
	// never figure values.
	Shards        int
	Windows       uint64
	CrossMessages uint64
	Lookahead     sim.Time
}

// Message kinds of the exa protocol.
const (
	exaStart int32 = iota
	exaBoundaryDone
	exaComputeDone
	exaHalo
)

// exaShape is the static cost of one block shape. A node's block has
// a size and a minus and a plus neighbor or not on each axis; nodes
// that agree on all three axes share one exaShape.
type exaShape struct {
	boundaryT sim.Time // boundary-update + pack + launch time
	interiorT sim.Time // interior-update time
	// inject is each existing face's halo cost beside the wire: the
	// NIC overhead plus the halo's injection time.
	inject    [NumFaces]sim.Time
	haloBytes int64 // halo bytes sent per iteration, over all faces
	degree    int32 // face neighbors
	faces     uint8 // bit f set: face f has a neighbor
}

// exaNode is one node's LP state, one 64-byte record. The slice of
// these is indexed by LP id; each element is touched only by its owner
// shard, which also builds it when the node starts.
type exaNode struct {
	// links holds the halo link across each face: its full
	// send→deliver delay under the α–β model, in nanoseconds, 0 where
	// the face has no neighbor. The peer is the node's LP id plus the
	// face's stride. Static once the node has started, as is shape.
	links [NumFaces]int32
	shape int32 // index into exaModel.shapes

	// Mutable per-iteration state.
	k           int32    // current iteration, 1-based
	got         [2]int32 // halos received, indexed by epoch parity
	computeDone bool     // this iteration's update has finished
	warmAt      sim.Time
	doneAt      sim.Time
}

// exaModel is the LP state of one RunExa: the node records, the shape
// table they index, what a node needs to build its record, and the
// schedule all nodes share.
type exaModel struct {
	nodes  []exaNode
	shapes []exaShape
	// class[ax][i] is the class of position i on axis ax, and
	// nClass[ax] the number of classes on it; a node's shape is one
	// class per axis.
	class  [3][]int32
	nClass [3]int
	step   [NumFaces]int // LP-id distance to the neighbor across each face
	net    netsim.Config
	topo   netsim.Topology

	iters      int32 // total iterations (warmup + timed)
	warmupIter int32
	overlap    bool
}

// newExaModel builds the static state of an LP-model run on the
// decomposition d, with one node per block. Each axis position falls
// into a class by (block size, has a minus neighbor, has a plus
// neighbor); a shape is one class per axis, priced once from a
// representative Block. The node records are left for each node to
// build on its own shard when it starts (start).
func newExaModel(cfg machine.Config, topo netsim.Topology, d Decomp, iters, warmup int, overlap bool) *exaModel {
	nNodes := d.Count()
	if iters > math.MaxInt32 || nNodes > math.MaxInt32/NumFaces {
		//gat:alloc-ok cold panic path
		panic(fmt.Sprintf("jacobi: %d iterations on %d nodes overflow the LP model's int32 state", iters, nNodes))
	}
	x := &exaModel{
		nodes:      make([]exaNode, nNodes),
		net:        cfg.Net,
		topo:       topo,
		iters:      int32(iters),
		warmupIter: int32(warmup),
		overlap:    overlap,
	}

	// rep[ax][c] is the first position of class c on axis ax.
	type axisClass struct {
		size        int
		minus, plus bool
	}
	var rep [3][]int
	for ax := 0; ax < 3; ax++ {
		dim := d.Dims[ax]
		var keys []axisClass
		x.class[ax] = make([]int32, dim)
		for i := 0; i < dim; i++ {
			k := axisClass{size: d.blockSize(ax, i), minus: i > 0, plus: i < dim-1}
			c := slices.Index(keys, k)
			if c < 0 {
				c = len(keys)
				keys = append(keys, k)
				rep[ax] = append(rep[ax], i)
			}
			x.class[ax][i] = int32(c)
		}
		x.nClass[ax] = len(keys)
	}

	// Aggregate node roofline: all GPUs stream the update together.
	aggBW := cfg.GPU.MemBandwidth * float64(cfg.GPUsPerNode)
	launch := cfg.GPU.KernelLaunchHost
	x.shapes = make([]exaShape, 0, x.nClass[0]*x.nClass[1]*x.nClass[2])
	for _, cx := range rep[0] {
		for _, cy := range rep[1] {
			for _, cz := range rep[2] {
				b := d.Block([3]int{cx, cy, cz})
				interior := b.InteriorVolume()
				boundary := b.Volume() - interior
				// Boundary phase carries the pack traffic and the
				// launch cost; interior is the pure streamed update.
				sh := exaShape{
					boundaryT: launch +
						sim.DurationOf(boundary*UpdateBytesPerCell+b.TotalFaceCells()*PackBytesPerCell, aggBW),
					interiorT: launch + sim.DurationOf(interior*UpdateBytesPerCell, aggBW),
				}
				for face := 0; face < NumFaces; face++ {
					if _, ok := b.neighbor(face); !ok {
						continue
					}
					bytes := b.FaceBytes(face)
					sh.inject[face] = cfg.Net.NICOverhead + sim.DurationOf(bytes, cfg.Net.InjectionBW)
					sh.haloBytes += bytes
					sh.degree++
					sh.faces |= 1 << face
				}
				x.shapes = append(x.shapes, sh)
			}
		}
	}

	sy := d.Dims[2]
	sx := d.Dims[1] * sy
	x.step = [NumFaces]int{-sx, sx, -sy, sy, -1, 1}
	return x
}

// start builds node n's record, on the node's shard as its start
// message is delivered: the shape, from the classes of the node's
// position on each axis (nodes are numbered walking x, y, z), and the
// delay of each halo link.
func (x *exaModel) start(n int) *exaNode {
	sx, sy := x.step[1], x.step[3]
	shape := (int(x.class[0][n/sx])*x.nClass[1]+int(x.class[1][n%sx/sy]))*x.nClass[2] + int(x.class[2][n%sy])
	sh := &x.shapes[shape]
	s := &x.nodes[n]
	*s = exaNode{shape: int32(shape)}
	for face, st := range x.step {
		if sh.faces&(1<<face) == 0 {
			continue
		}
		peer := n + st
		delay := netsim.PathLatency(x.net, x.topo, n, peer) + sh.inject[face]
		if delay > math.MaxInt32 {
			//gat:alloc-ok cold panic path
			panic(fmt.Sprintf("jacobi: halo delay %v from node %d to %d does not fit a link", delay, n, peer))
		}
		s.links[face] = int32(delay)
	}
	return s
}

// handle drives one node's iteration protocol. It is a deterministic
// function of the node's state and the message, as the pdes delivery
// contract requires.
func (x *exaModel) handle(ctx *pdes.Ctx, m pdes.Message) {
	s := &x.nodes[ctx.LP()]
	switch m.Kind {
	case exaStart:
		x.startIter(ctx, x.start(ctx.LP()), 1)
	case exaBoundaryDone:
		x.sendHalos(ctx, s, int32(m.Data))
		ctx.Send(ctx.LP(), x.shapes[s.shape].interiorT, exaComputeDone, m.Data)
	case exaComputeDone:
		k := int32(m.Data)
		if !x.overlap {
			x.sendHalos(ctx, s, k)
		}
		s.computeDone = true
		if k == x.warmupIter {
			s.warmAt = ctx.Now()
		}
		if k == x.iters {
			s.doneAt = ctx.Now()
			return
		}
		if s.got[k&1] == x.shapes[s.shape].degree {
			x.advance(ctx, s)
		}
	case exaHalo:
		e := int32(m.Data)
		if e != s.k && e != s.k+1 {
			//gat:alloc-ok cold panic path
			panic(fmt.Sprintf("jacobi: node %d got a halo for epoch %d while in %d", ctx.LP(), e, s.k))
		}
		s.got[e&1]++
		if s.computeDone && e == s.k && s.got[e&1] == x.shapes[s.shape].degree {
			x.advance(ctx, s)
		}
	}
}

// startIter begins iteration k: the overlapped schedule splits the
// update at the boundary so halos leave before the interior runs; the
// blocking schedule is one fused delay with halos sent at the end.
func (x *exaModel) startIter(ctx *pdes.Ctx, s *exaNode, k int32) {
	s.k = k
	s.computeDone = false
	sh := &x.shapes[s.shape]
	if x.overlap {
		ctx.Send(ctx.LP(), sh.boundaryT, exaBoundaryDone, int64(k))
		return
	}
	ctx.Send(ctx.LP(), sh.boundaryT+sh.interiorT, exaComputeDone, int64(k))
}

// advance moves to the next iteration once the current update is done
// and all of this epoch's halos arrived.
func (x *exaModel) advance(ctx *pdes.Ctx, s *exaNode) {
	s.got[s.k&1] = 0
	x.startIter(ctx, s, s.k+1)
}

// sendHalos emits iteration k's halo messages, one per link in face
// order. The final iteration sends none: nothing waits on them, and
// skipping them keeps NetMsgs meaningful (every counted message is
// load-bearing).
func (x *exaModel) sendHalos(ctx *pdes.Ctx, s *exaNode, k int32) {
	if k == x.iters {
		return
	}
	faces := x.shapes[s.shape].faces
	lp := ctx.LP()
	for face, st := range x.step {
		if faces&(1<<face) != 0 {
			ctx.Send(lp+st, sim.Time(s.links[face]), exaHalo, int64(k))
		}
	}
}

// RunExa runs the node-level LP model of Jacobi3D on the machine
// configuration (which is consumed as a cost model only — no Machine,
// no per-node pipes are instantiated). The partition is group-aligned:
// whole switch groups per shard, so the lookahead is the cross-group
// wire latency and every cross-shard halo legally clears it.
//
// A halo's delay is netsim.PathLatency plus the NIC overhead plus the
// injection time. The model sees no fabric links, taper or routing
// policy, so it shows no contention even on a tapered profile.
//
// Per-node state is kept small, since it sets the cost of a 10k-node
// run: the static costs live once per block shape (a handful of shapes
// per grid), a node record is 64 bytes with its six 4-byte halo links,
// and its pdes inbox 232, eight 24-byte message slots included. Each
// node builds its record on its own shard as it starts, so no
// goroutine sets up every node. A 16,384-node run on two shards
// allocates about 444 bytes per node, the engine's buckets included, or
// 184 when it runs on the inboxes and post queues an earlier run kept
// (407 every run with the links in a separate slab and the posts filed
// at once; 518 with 32-byte slots in a separate slab, 8-byte links and
// per-node traffic counters; 809 with 40-byte messages, 24-byte links
// and per-node copies of the shape constants).
func RunExa(cfg machine.Config, jc Config, opts ExaOpts) ExaResult {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	jc = jc.DefaultIterations()
	nNodes := cfg.Nodes
	d := NewDecomp(jc.Global, nNodes)

	topo, err := netsim.TopologyByName(cfg.Net.Topology, cfg.Net.EffectivePodSize(), nNodes)
	if err != nil {
		panic(err) // Validate accepted it above
	}

	// Group-aligned partition: contiguous runs of switch groups per
	// shard, clamped so no shard is empty.
	nGroups := topo.Group(nNodes-1) + 1
	k := opts.Shards
	if k < 1 {
		k = 1
	}
	if k > nGroups {
		k = nGroups
	}
	groupsPer := (nGroups + k - 1) / k
	shardOf := func(node int) int { return topo.Group(node) / groupsPer }
	lookahead := netsim.MinCrossLatency(cfg.Net, topo, nNodes, shardOf)

	x := newExaModel(cfg, topo, d, jc.Warmup+jc.Iters, jc.Warmup, opts.Overlap)
	r := pdes.MustNew(pdes.Config{
		LPs:       nNodes,
		Shards:    k,
		Lookahead: lookahead,
		ShardOf:   shardOf,
		Handler:   x.handle,
	})
	for n := 0; n < nNodes; n++ {
		r.Post(n, 0, exaStart, 0)
	}
	r.Run()

	st := r.Stats()
	res := ExaResult{
		Events:        st.Events,
		Shards:        st.Shards,
		Windows:       st.Windows,
		CrossMessages: st.CrossMessages,
		Lookahead:     lookahead,
	}
	var warmMax, doneMax sim.Time
	sends := int64(x.iters) - 1 // sendHalos skips the final iteration
	for n := range x.nodes {
		s := &x.nodes[n]
		if s.doneAt == 0 && x.iters > 0 {
			//gat:alloc-ok cold panic path
			panic(fmt.Sprintf("jacobi: node %d never completed (stuck at iteration %d)", n, s.k))
		}
		if s.warmAt > warmMax {
			warmMax = s.warmAt
		}
		if s.doneAt > doneMax {
			doneMax = s.doneAt
		}
		sh := &x.shapes[s.shape]
		res.NetMsgs += uint64(int64(sh.degree) * sends)
		res.NetBytes += sh.haloBytes * sends
	}
	res.Total = doneMax
	res.TimePerIter = (doneMax - warmMax) / sim.Time(jc.Iters)
	return res
}
