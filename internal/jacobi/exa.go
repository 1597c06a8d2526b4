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
// partition diagnostics (Shards, Windows) are independent of ExaOpts.Shards.
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
	// NetBytes and NetMsgs count the halo traffic sent.
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

// exaNeighbor is one face-adjacent node: its LP id, the halo size, and
// the full send→deliver delay under the α–β model.
type exaNeighbor struct {
	lp    int32
	bytes int64
	delay sim.Time
}

// exaNode is one node's LP state. The slice of these is indexed by LP
// id; during the run each element is touched only by its owner shard.
type exaNode struct {
	// Static after setup.
	neighbors  []exaNeighbor
	boundaryT  sim.Time // boundary-update + pack + launch time
	interiorT  sim.Time // interior-update time
	iters      int      // total iterations (warmup + timed)
	warmupIter int
	overlap    bool

	// Mutable per-iteration state.
	k           int    // current iteration, 1-based
	computeDone bool   // this iteration's update has finished
	got         [2]int // halos received, indexed by epoch parity
	warmAt      sim.Time
	doneAt      sim.Time
	sentMsgs    uint64
	sentBytes   int64
}

// exaHandler drives one node's iteration protocol. It is a
// deterministic function of the node's state and the message, as the
// pdes delivery contract requires.
func exaHandler(nodes []exaNode) pdes.Handler {
	return func(ctx *pdes.Ctx, m pdes.Message) {
		s := &nodes[ctx.LP()]
		switch m.Kind {
		case exaStart:
			exaStartIter(ctx, s, 1)
		case exaBoundaryDone:
			exaSendHalos(ctx, s, int(m.Data))
			ctx.Send(ctx.LP(), s.interiorT, exaComputeDone, m.Data)
		case exaComputeDone:
			k := int(m.Data)
			if !s.overlap {
				exaSendHalos(ctx, s, k)
			}
			s.computeDone = true
			if k == s.warmupIter {
				s.warmAt = ctx.Now()
			}
			if k == s.iters {
				s.doneAt = ctx.Now()
				return
			}
			if s.got[k&1] == len(s.neighbors) {
				exaAdvance(ctx, s)
			}
		case exaHalo:
			e := int(m.Data)
			if e != s.k && e != s.k+1 {
				//gat:alloc-ok cold panic path
				panic(fmt.Sprintf("jacobi: node %d got a halo for epoch %d while in %d", ctx.LP(), e, s.k))
			}
			s.got[e&1]++
			if s.computeDone && e == s.k && s.got[e&1] == len(s.neighbors) {
				exaAdvance(ctx, s)
			}
		}
	}
}

// exaStartIter begins iteration k: the overlapped schedule splits the
// update at the boundary so halos leave before the interior runs; the
// blocking schedule is one fused delay with halos sent at the end.
func exaStartIter(ctx *pdes.Ctx, s *exaNode, k int) {
	s.k = k
	s.computeDone = false
	if s.overlap {
		ctx.Send(ctx.LP(), s.boundaryT, exaBoundaryDone, int64(k))
		return
	}
	ctx.Send(ctx.LP(), s.boundaryT+s.interiorT, exaComputeDone, int64(k))
}

// exaAdvance moves to the next iteration once the current update is
// done and all of this epoch's halos arrived.
func exaAdvance(ctx *pdes.Ctx, s *exaNode) {
	s.got[s.k&1] = 0
	exaStartIter(ctx, s, s.k+1)
}

// exaSendHalos emits iteration k's halo messages. The final iteration
// sends none: nothing waits on them, and skipping them keeps NetMsgs
// meaningful (every counted message is load-bearing).
func exaSendHalos(ctx *pdes.Ctx, s *exaNode, k int) {
	if k == s.iters {
		return
	}
	for _, nb := range s.neighbors {
		ctx.Send(int(nb.lp), nb.delay, exaHalo, int64(k))
		s.sentMsgs++
		s.sentBytes += nb.bytes
	}
}

// RunExa runs the node-level LP model of Jacobi3D on the machine
// configuration (which is consumed as a cost model only — no Machine,
// no per-node pipes are instantiated). The partition is group-aligned:
// whole switch groups per shard, so the lookahead is the cross-group
// wire latency and every cross-shard halo legally clears it.
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

	// Aggregate node roofline: all GPUs stream the update together.
	aggBW := cfg.GPU.MemBandwidth * float64(cfg.GPUsPerNode)
	launch := cfg.GPU.KernelLaunchHost

	nodes := make([]exaNode, nNodes)
	// Every node's neighbor list is carved from one slab.
	links := make([]exaNeighbor, 0, nNodes*NumFaces)
	totalIters := jc.Warmup + jc.Iters
	for n := 0; n < nNodes; n++ {
		b := d.BlockFlat(n)
		s := &nodes[n]
		s.iters = totalIters
		s.warmupIter = jc.Warmup
		s.overlap = opts.Overlap
		interior := b.InteriorVolume()
		boundary := b.Volume() - interior
		// Boundary phase carries the pack traffic and the launch cost;
		// interior is the pure streamed update.
		s.boundaryT = launch +
			sim.DurationOf(boundary*UpdateBytesPerCell+b.TotalFaceCells()*PackBytesPerCell, aggBW)
		s.interiorT = launch + sim.DurationOf(interior*UpdateBytesPerCell, aggBW)
		first := len(links)
		for face := 0; face < NumFaces; face++ {
			idx, ok := b.neighbor(face)
			if !ok {
				continue
			}
			peer := d.Flatten(idx)
			bytes := b.FaceBytes(face)
			delay := netsim.PathLatency(cfg.Net, topo, n, peer) +
				cfg.Net.NICOverhead + sim.DurationOf(bytes, cfg.Net.InjectionBW)
			links = append(links, exaNeighbor{lp: int32(peer), bytes: bytes, delay: delay})
		}
		s.neighbors = links[first:len(links):len(links)]
	}

	r := pdes.MustNew(pdes.Config{
		LPs:       nNodes,
		Shards:    k,
		Lookahead: lookahead,
		ShardOf:   shardOf,
		Handler:   exaHandler(nodes),
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
	for n := range nodes {
		s := &nodes[n]
		if s.doneAt == 0 && s.iters > 0 {
			//gat:alloc-ok cold panic path
			panic(fmt.Sprintf("jacobi: node %d never completed (stuck at iteration %d)", n, s.k))
		}
		if s.warmAt > warmMax {
			warmMax = s.warmAt
		}
		if s.doneAt > doneMax {
			doneMax = s.doneAt
		}
		res.NetMsgs += s.sentMsgs
		res.NetBytes += s.sentBytes
	}
	res.Total = doneMax
	res.TimePerIter = (doneMax - warmMax) / sim.Time(jc.Iters)
	return res
}
