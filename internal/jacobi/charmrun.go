package jacobi

import (
	"gat/internal/charm"
	"gat/internal/comm"
	"gat/internal/gpu"
	"gat/internal/machine"
	"gat/internal/sim"
)

// CharmOpts selects the Charm-style variant behaviour.
type CharmOpts struct {
	// ODF is the overdecomposition factor: chares per PE/GPU. Zero
	// means 1 (no overdecomposition).
	ODF int
	// GPUAware enables Channel-API GPU-aware communication (Charm-D);
	// otherwise halos stage through host memory inside regular runtime
	// messages (Charm-H).
	GPUAware bool
	// Async enables HAPI asynchronous completion detection instead of
	// blocking stream synchronizations, and drops the redundant
	// after-update synchronization (the §III-C "after" optimization).
	Async bool
	// SplitStreams gives D2H and H2D transfers their own high-priority
	// streams instead of sharing the packing stream (the second §III-C
	// optimization).
	SplitStreams bool
	// Fusion selects the kernel fusion strategy (GPU-aware mode only,
	// as in the paper).
	Fusion Fusion
	// Graphs executes each iteration's kernel DAG as a pre-captured
	// executable graph (GPU-aware mode only).
	Graphs bool
	// FlatPriority disables the high-priority streams for packing and
	// transfers, the ablation of the §III-A prescription that
	// communication-related GPU work must bypass bulk kernels.
	FlatPriority bool
	// ResidualEvery, when positive, contributes each chare's residual
	// to an asynchronous tree reduction every that many iterations.
	// Unlike the MPI variant's allreduce this does not block: chares
	// keep iterating while the reduction propagates (§II-A).
	ResidualEvery int
	// UseMessagingAPI replaces the Channel API with the older GPU
	// Messaging API (metadata message + post entry method, §II-B) for
	// the halo transfers — the mechanism the Channel API superseded.
	UseMessagingAPI bool
}

// Optimized returns opts with the §III-C optimizations enabled — the
// baseline for every experiment after Fig 6.
func (o CharmOpts) Optimized() CharmOpts {
	o.Async = true
	o.SplitStreams = true
	return o
}

// Entry method ids for the block chare array.
const (
	entryStart = iota
	entryRecvHalo
)

// chState is the per-chare state of a Jacobi3D block.
type chState struct {
	blk  Block
	nbrs []Neighbor

	packS, d2hS, h2dS, updS *gpu.Stream

	// produced, sends and unpacks outlive the handler that issued them,
	// and their signals recycle as they fire, so the chare keeps
	// references.
	gate     *charm.Gate
	iter     int
	produced sim.SignalRef   // input data ready to pack (prev update/graph)
	sends    []sim.SignalRef // this iteration's send completions
	unpacks  []sim.SignalRef

	channels [NumFaces]*comm.Channel
	graphs   [2]*gpu.Graph

	warmReported bool

	// Continuations bound once per chare at setup, so an iteration
	// schedules no fresh closure: startFn and afterFn run the iteration
	// phases; recvFn[f] is face f's channel receive completion, which
	// enqueues haloFn[f]; unpackFn[f] and recvHFn[f] are the gate actions
	// of a GPU-aware and a host-staged arrival on face f. A face's
	// arrivals all belong to the chare's current iteration (GPU-aware:
	// the receive is posted by that iteration) or carry equal byte counts
	// (host-staged: recvBytes[f]), so the thunks need no per-call state.
	startFn, afterFn func(*charm.Ctx)
	recvFn           [NumFaces]func()
	haloFn           [NumFaces]func(*charm.Ctx)
	unpackFn         [NumFaces]func(*charm.Ctx)
	recvHFn          [NumFaces]func(*charm.Ctx)
	recvBytes        [NumFaces]int64

	// spareSends is the previous iteration's send-reference slice,
	// reused for the next iteration's; scratch backs AllOf argument
	// lists.
	spareSends []sim.SignalRef
	scratch    []*sim.Signal
	// staged collects a host-staged send phase's halo records.
	staged []*haloSend
}

type charmDriver struct {
	rt    *charm.Runtime
	cfg   Config
	opt   CharmOpts
	d     Decomp
	arr   *charm.Array
	resid *charm.Reduction
	total int

	warmC, doneC *sim.Counter
	tWarm, tEnd  sim.Time

	// freeSends recycles host-staged halo send records.
	freeSends []*haloSend
}

// RunCharm executes Jacobi3D with the Charm-style runtime on machine m.
func RunCharm(m *machine.Machine, cfg Config, opt CharmOpts) Result {
	return newCharmDriver(m, cfg, opt).run()
}

// newCharmDriver builds the runtime, chare array, streams, channels and
// graphs of a Charm-style run without starting it.
func newCharmDriver(m *machine.Machine, cfg Config, opt CharmOpts) *charmDriver {
	cfg = cfg.DefaultIterations()
	if opt.ODF <= 0 {
		opt.ODF = 1
	}
	if !opt.GPUAware && (opt.Fusion != FusionNone || opt.Graphs) {
		panic("jacobi: fusion and graphs require GPU-aware communication (§III-D)")
	}
	rt := charm.NewRuntime(m, charm.DefaultOptions())
	nChares := rt.NumPEs() * opt.ODF
	drv := &charmDriver{
		rt:    rt,
		cfg:   cfg,
		opt:   opt,
		d:     NewDecomp(cfg.Global, nChares),
		total: cfg.Warmup + cfg.Iters,
		warmC: sim.NewCounter(nChares),
		doneC: sim.NewCounter(nChares),
	}
	drv.warmC.Done().OnFire(m.Eng, func() { drv.tWarm = m.Eng.Now() })
	drv.doneC.Done().OnFire(m.Eng, func() { drv.tEnd = m.Eng.Now() })

	entries := []charm.EntryFn{
		entryStart:    func(el *charm.Elem, ctx *charm.Ctx, msg charm.Msg) { drv.startIter(el, ctx) },
		entryRecvHalo: func(el *charm.Elem, ctx *charm.Ctx, msg charm.Msg) { drv.recvHaloH(el, ctx, msg) },
	}
	drv.arr = charm.NewArray(rt, "block", [3]int{drv.d.Dims[0], drv.d.Dims[1], drv.d.Dims[2]},
		entries, func(ix charm.Index) any { return &chState{} })
	if opt.ResidualEvery > 0 {
		drv.resid = charm.NewReduction(drv.arr, 8)
	}
	drv.setup()
	return drv
}

// run executes the driver's iterations to completion.
func (drv *charmDriver) run() Result {
	m := drv.rt.M
	drv.arr.Broadcast(charm.Msg{Entry: entryStart})
	m.Eng.Run()
	return result(m, (drv.tEnd-drv.tWarm)/sim.Time(drv.cfg.Iters))
}

func state(el *charm.Elem) *chState { return el.State.(*chState) }

// setup initializes per-chare streams, geometry, channels, and graphs.
func (drv *charmDriver) setup() {
	m := drv.rt.M
	for _, el := range drv.arr.Elems() {
		st := state(el)
		st.blk = drv.d.Block([3]int(el.Idx))
		st.nbrs = st.blk.Neighbors()
		st.gate = charm.NewGate()
		st.produced = sim.FiredSignal().Ref()
		dev := m.GPUOf(el.PE())
		dev.Alloc("jacobi/grids", 2*st.blk.Volume()*ElemBytes)
		dev.Alloc("jacobi/halos", 2*st.blk.TotalFaceCells()*ElemBytes)
		// Streams are created per chare so independent chares can use
		// the device concurrently (§III-A). Packing and unpacking run
		// at high priority; the bulk update at normal priority.
		commPrio := gpu.PriorityHigh
		if drv.opt.FlatPriority {
			commPrio = gpu.PriorityNormal
		}
		st.packS = dev.NewStream("pack", commPrio)
		st.updS = dev.NewStream("update", gpu.PriorityNormal)
		if drv.opt.SplitStreams {
			st.d2hS = dev.NewStream("d2h", commPrio)
			st.h2dS = dev.NewStream("h2d", commPrio)
		} else {
			// Before-optimization layout: transfers share the
			// pack/unpack stream.
			st.d2hS = st.packS
			st.h2dS = st.packS
		}
		if drv.opt.Graphs {
			st.graphs[0] = drv.buildGraph(dev, st.blk)
			st.graphs[1] = drv.buildGraph(dev, st.blk) // swapped-pointer twin
		}
		drv.bindThunks(el, st)
	}
	if drv.opt.GPUAware {
		// One channel per adjacent chare pair, created from the
		// lower-indexed side.
		for _, el := range drv.arr.Elems() {
			st := state(el)
			for _, nb := range st.nbrs {
				peerFlat := drv.d.Flatten(nb.Idx)
				if peerFlat < el.Flat {
					continue
				}
				peer := drv.arr.Elem(charm.Index(nb.Idx))
				ch := comm.NewChannel(m.Net,
					comm.Endpoint{Proc: el.Flat, Node: m.NodeOf(el.PE())},
					comm.Endpoint{Proc: peerFlat, Node: m.NodeOf(peer.PE())})
				st.channels[nb.Face] = ch
				state(peer).channels[Opposite(nb.Face)] = ch
			}
		}
	}
}

// bindThunks builds the chare's per-iteration continuations (see
// chState).
func (drv *charmDriver) bindThunks(el *charm.Elem, st *chState) {
	st.startFn = func(ctx *charm.Ctx) { drv.startIter(el, ctx) }
	st.afterFn = func(ctx *charm.Ctx) { drv.afterHalos(el, ctx) }
	perFaceUnpack := (drv.opt.Fusion == FusionNone || drv.opt.Fusion == FusionA) && !drv.opt.Graphs
	for _, nb := range st.nbrs {
		face := nb.Face
		unpackBytes := packKernelBytes(st.blk.FaceCells(face / 2))
		if !drv.opt.GPUAware {
			st.recvHFn[face] = func(ctx *charm.Ctx) {
				h2d := ctx.EnqueueCopy(st.h2dS, gpu.H2D, st.recvBytes[face], nil)
				ctx.GateStream(st.packS, h2d)
				st.unpacks = append(st.unpacks, ctx.LaunchKernelBytes(st.packS, "unpack", unpackBytes).Ref())
			}
			continue
		}
		// With per-face unpacking (FusionNone and FusionA, which fuses
		// only the packs) the face's unpack kernel launches immediately,
		// overlapping with other arrivals; fused-unpack and graph modes
		// only count the arrival, since their unpack cannot start until
		// every halo is present (§III-D1).
		st.unpackFn[face] = func(ctx *charm.Ctx) {
			if perFaceUnpack {
				st.unpacks = append(st.unpacks, ctx.LaunchKernelBytes(st.packS, "unpack", unpackBytes).Ref())
			}
		}
		if drv.opt.UseMessagingAPI {
			continue
		}
		st.haloFn[face] = func(ctx *charm.Ctx) { st.gate.Arrive(ctx, st.iter, st.unpackFn[face]) }
		st.recvFn[face] = func() {
			drv.rt.PE(el.PE()).Enqueue(charm.PrioHigh, drv.rt.Opt.SchedOverhead, "haloArrived", el, st.haloFn[face])
		}
	}
}

// buildGraph captures one iteration's kernel DAG for a block under the
// current fusion strategy: unpack nodes, the update, and pack nodes for
// the next send.
func (drv *charmDriver) buildGraph(dev *gpu.Device, blk Block) *gpu.Graph {
	g := gpu.NewGraph()
	nbrs := blk.Neighbors()
	switch drv.opt.Fusion {
	case FusionC:
		g.AddKernel("fusedAll", dev.KernelTime(fusedAllBytes(blk.Volume(), blk.TotalFaceCells())))
		return g
	case FusionB:
		unp := g.AddKernel("unpackAll", dev.KernelTime(fusedPackBytes(blk.TotalFaceCells())))
		upd := g.AddKernel("update", dev.KernelTime(updateKernelBytes(blk.Volume())), unp)
		g.AddKernel("packAll", dev.KernelTime(fusedPackBytes(blk.TotalFaceCells())), upd)
	case FusionA:
		deps := make([]*gpu.GraphNode, 0, len(nbrs))
		for _, nb := range nbrs {
			deps = append(deps, g.AddKernel("unpack",
				dev.KernelTime(packKernelBytes(blk.FaceCells(nb.Face/2)))))
		}
		upd := g.AddKernel("update", dev.KernelTime(updateKernelBytes(blk.Volume())), deps...)
		g.AddKernel("packAll", dev.KernelTime(fusedPackBytes(blk.TotalFaceCells())), upd)
	default:
		deps := make([]*gpu.GraphNode, 0, len(nbrs))
		for _, nb := range nbrs {
			deps = append(deps, g.AddKernel("unpack",
				dev.KernelTime(packKernelBytes(blk.FaceCells(nb.Face/2)))))
		}
		upd := g.AddKernel("update", dev.KernelTime(updateKernelBytes(blk.Volume())), deps...)
		for _, nb := range nbrs {
			g.AddKernel("pack", dev.KernelTime(packKernelBytes(blk.FaceCells(nb.Face/2))), upd)
		}
	}
	return g
}

// startIter begins one iteration of a block chare: buffer swap, halo
// send phase, and the SDAG gate for incoming halos.
func (drv *charmDriver) startIter(el *charm.Elem, ctx *charm.Ctx) {
	st := state(el)
	if st.iter == drv.cfg.Warmup && !st.warmReported {
		st.warmReported = true
		drv.warmC.Add(drv.rt.Engine())
	}
	if st.iter == drv.total {
		drv.doneC.Add(drv.rt.Engine())
		return
	}
	iter := st.iter
	// The previous iteration's send signals feed this send phase's
	// input gate; its slice is reused for the next iteration's.
	prevSends := st.sends
	st.sends = st.spareSends[:0]
	st.spareSends = prevSends
	st.unpacks = st.unpacks[:0]

	if drv.opt.GPUAware {
		drv.sendPhaseD(el, ctx, iter, prevSends)
	} else {
		drv.sendPhaseH(el, ctx, iter)
	}

	st.gate.Expect(ctx, iter, len(st.nbrs), st.afterFn)
}

// allOf joins first and the signals refs refer to into one, building
// the argument list in the chare's scratch slice.
func (drv *charmDriver) allOf(st *chState, first *sim.Signal, refs []sim.SignalRef) *sim.Signal {
	st.scratch = append(st.scratch[:0], first)
	for _, r := range refs {
		st.scratch = append(st.scratch, r.Signal())
	}
	sig := sim.AllOf(drv.rt.Engine(), st.scratch...)
	clear(st.scratch)
	st.scratch = st.scratch[:0]
	return sig
}

// sendPhaseD packs and sends halos over GPU-aware channels.
func (drv *charmDriver) sendPhaseD(el *charm.Elem, ctx *charm.Ctx, iter int, prevSends []sim.SignalRef) {
	st := state(el)
	opt := drv.rt.Opt
	eng := drv.rt.Engine()

	// Per-face data-ready signals for the sends.
	var ready [NumFaces]*sim.Signal
	inputReady := drv.allOf(st, st.produced.Signal(), prevSends)
	switch {
	case drv.opt.Graphs && iter > 0, drv.opt.Fusion == FusionC && iter > 0:
		// Packing already happened inside the previous graph / fused
		// kernel.
		produced := st.produced.Signal()
		for _, nb := range st.nbrs {
			ready[nb.Face] = produced
		}
	case drv.opt.Fusion == FusionA || drv.opt.Fusion == FusionB ||
		(drv.opt.Fusion == FusionC && iter == 0) ||
		(drv.opt.Graphs && iter == 0 && drv.opt.Fusion != FusionNone):
		ctx.GateStream(st.packS, inputReady)
		one := ctx.LaunchKernelBytes(st.packS, "packAll", fusedPackBytes(st.blk.TotalFaceCells()))
		for _, nb := range st.nbrs {
			ready[nb.Face] = one
		}
	default:
		ctx.GateStream(st.packS, inputReady)
		for _, nb := range st.nbrs {
			ready[nb.Face] = ctx.LaunchKernelBytes(st.packS, "pack",
				packKernelBytes(st.blk.FaceCells(nb.Face/2)))
		}
	}

	for _, nb := range st.nbrs {
		sendDone := eng.NewSignal()
		st.sends = append(st.sends, sendDone.Ref())
		if drv.opt.UseMessagingAPI {
			drv.messagingSend(el, ctx, nb, iter, ready[nb.Face], sendDone)
			continue
		}
		ch := st.channels[nb.Face]
		ctx.Charge(opt.MsgHostOverhead)
		ch.Send(el.Flat, iter, st.blk.FaceBytes(nb.Face), ready[nb.Face], sendDone)
		ctx.Charge(opt.MsgHostOverhead)
		ch.Recv(el.Flat, iter, st.recvFn[nb.Face])
	}
}

// messagingSend transfers one halo with the GPU Messaging API: the
// metadata message invokes a post entry method on the receiver before
// the device data can move, so the receive side needs no pre-posted
// recv — at the cost of an extra message round (§II-B).
func (drv *charmDriver) messagingSend(el *charm.Elem, ctx *charm.Ctx, nb Neighbor, iter int, ready, sendDone *sim.Signal) {
	st := state(el)
	m := drv.rt.M
	eng := drv.rt.Engine()
	peer := drv.arr.Elem(charm.Index(nb.Idx))
	recvFace := Opposite(nb.Face)
	ctx.Charge(drv.rt.Opt.MsgHostOverhead)
	comm.MessagingSend(m.Net, comm.DefaultMessagingConfig(),
		comm.Endpoint{Proc: el.Flat, Node: m.NodeOf(el.PE())},
		comm.Endpoint{Proc: peer.Flat, Node: m.NodeOf(peer.PE())},
		st.blk.FaceBytes(nb.Face), ready, func() {
			sendDone.Fire(eng)
			peerSt := state(peer)
			drv.rt.PE(peer.PE()).Enqueue(charm.PrioHigh, drv.rt.Opt.SchedOverhead,
				"haloArrived", peer, func(ctx *charm.Ctx) {
					peerSt.gate.Arrive(ctx, iter, peerSt.unpackFn[recvFace])
				})
		})
}

// haloSend is one host-staged halo message waiting for its staging copy:
// the iteration it belongs to and its face. Records are recycled through
// the driver, and each binds its two continuations once, when it is
// first built.
type haloSend struct {
	drv  *charmDriver
	el   *charm.Elem
	nb   Neighbor
	iter int
	size int64

	enqueueFn func()           // the staging copy landed: queue sendFn
	sendFn    func(*charm.Ctx) // send the message, then recycle
}

func (drv *charmDriver) newHaloSend() *haloSend {
	if k := len(drv.freeSends); k > 0 {
		hs := drv.freeSends[k-1]
		drv.freeSends[k-1] = nil
		drv.freeSends = drv.freeSends[:k-1]
		return hs
	}
	hs := &haloSend{drv: drv}
	hs.enqueueFn = func() {
		hs.drv.rt.PE(hs.el.PE()).Enqueue(charm.PrioHigh, hs.drv.rt.Opt.SchedOverhead, "sendHalo", hs.el, hs.sendFn)
	}
	hs.sendFn = func(ctx *charm.Ctx) {
		d := hs.drv
		ctx.Send(d.arr, charm.Index(hs.nb.Idx), charm.Msg{
			Entry: entryRecvHalo,
			Ref:   hs.iter,
			Bytes: hs.size,
			Data:  Opposite(hs.nb.Face),
		})
		hs.el = nil
		d.freeSends = append(d.freeSends, hs)
	}
	return hs
}

// sendPhaseH packs halos, stages them to the host, and sends them as
// regular runtime messages (Charm-H).
func (drv *charmDriver) sendPhaseH(el *charm.Elem, ctx *charm.Ctx, iter int) {
	st := state(el)
	eng := drv.rt.Engine()
	ctx.GateStream(st.packS, st.produced.Signal())

	d2hSigs := st.scratch[:0]
	for _, nb := range st.nbrs {
		size := st.blk.FaceBytes(nb.Face)
		pack := ctx.LaunchKernelBytes(st.packS, "pack", packKernelBytes(st.blk.FaceCells(nb.Face/2)))
		d2h := ctx.EnqueueCopy(st.d2hS, gpu.D2H, size, pack)
		d2hSigs = append(d2hSigs, d2h)
		hs := drv.newHaloSend()
		hs.el, hs.nb, hs.iter, hs.size = el, nb, iter, size
		st.staged = append(st.staged, hs)
	}
	if drv.opt.Async {
		// After-optimization: each halo is sent as soon as its staging
		// copy completes, with no blocking synchronization.
		for i, hs := range st.staged {
			d2hSigs[i].OnFire(eng, hs.enqueueFn)
		}
	} else {
		// Before-optimization: block the PE until all staging copies
		// finish, then send everything (the §III-C redundant sync).
		ctx.Block(sim.AllOf(eng, d2hSigs...))
		for _, hs := range st.staged {
			ctx.Post(charm.PrioHigh, "sendHalo", hs.sendFn)
		}
	}
	clear(d2hSigs)
	st.scratch = d2hSigs[:0]
	clear(st.staged)
	st.staged = st.staged[:0]
}

// recvHaloH handles a host-staged halo message: H2D transfer, then the
// face's unpack kernel.
func (drv *charmDriver) recvHaloH(el *charm.Elem, ctx *charm.Ctx, msg charm.Msg) {
	st := state(el)
	face := msg.Data.(int)
	st.recvBytes[face] = msg.Bytes
	st.gate.Arrive(ctx, msg.Ref, st.recvHFn[face])
}

// afterHalos runs once all halos of the iteration have arrived: it
// launches the remaining kernels (per fusion/graph strategy) and
// advances to the next iteration.
func (drv *charmDriver) afterHalos(el *charm.Elem, ctx *charm.Ctx) {
	st := state(el)

	var produced *sim.Signal
	switch {
	case drv.opt.Graphs:
		produced = ctx.LaunchGraph(st.updS, st.graphs[st.iter%2])
	case drv.opt.Fusion == FusionC:
		// Single kernel: unpack + update + pack for the next iteration.
		// The pack portion writes the send buffers, so it must wait for
		// the previous sends to drain.
		ctx.GateStream(st.updS, drv.allOf(st, sim.FiredSignal(), st.sends))
		produced = ctx.LaunchKernelBytes(st.updS, "fusedAll",
			fusedAllBytes(st.blk.Volume(), st.blk.TotalFaceCells()))
	case drv.opt.Fusion == FusionB:
		unp := ctx.LaunchKernelBytes(st.packS, "unpackAll", fusedPackBytes(st.blk.TotalFaceCells()))
		ctx.GateStream(st.updS, unp)
		produced = ctx.LaunchKernelBytes(st.updS, "update", updateKernelBytes(st.blk.Volume()))
	default:
		ctx.GateStream(st.updS, drv.allOf(st, sim.FiredSignal(), st.unpacks))
		produced = ctx.LaunchKernelBytes(st.updS, "update", updateKernelBytes(st.blk.Volume()))
	}
	st.produced = produced.Ref()

	if drv.opt.ResidualEvery > 0 && (st.iter+1)%drv.opt.ResidualEvery == 0 {
		// Contribute asynchronously; the chare does not wait for the
		// reduction to reach the root.
		drv.resid.Contribute(ctx, st.iter)
	}

	st.iter++
	if drv.opt.Async {
		ctx.HAPICallback(st.updS, "nextIter", st.startFn)
	} else {
		// Before-optimization: synchronize with the device before
		// starting the next iteration.
		ctx.Block(produced)
		ctx.Post(charm.PrioHigh, "nextIter", st.startFn)
	}
}
