package jacobi

import (
	"unsafe"

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
	// Optimized enables the two §III-C optimizations, the baseline for
	// every experiment after Fig 6: HAPI asynchronous completion
	// detection instead of blocking stream synchronizations, without the
	// redundant after-update synchronization; and D2H and H2D transfers
	// on their own high-priority streams instead of the packing stream.
	Optimized bool
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
}

// Entry method ids for the block chare array.
const (
	entryStart = iota
	entryRecvHalo
)

// chState is the per-chare state of a Jacobi3D block. A run's chares
// live in one slab, and everything a chare hands the runtime or a
// channel to call back later is a record inside it — the chare itself,
// or one of its faces — dispatched through a static function, so the
// chare binds no closure.
type chState struct {
	drv *charmDriver
	el  *charm.Elem
	blk Block

	packS, d2hS, h2dS, updS *gpu.Stream
	graphs                  [2]*gpu.Graph

	gate         charm.Gate
	iter         int
	warmReported bool
	nf           int // faces with a neighbor: faces[:nf]
	nUnpacks     int // unpacks[:nUnpacks]

	// produced, sent and unpacks outlive the handler that issued them,
	// and their signals recycle as they fire, so the chare keeps
	// references. produced is the input data ready to pack (the previous
	// update or graph); sent holds each face's latest send completion
	// (GPU-aware), in faces order, and reads fired before the first send
	// phase; unpacks holds the iteration's unpack kernels in arrival
	// order.
	produced sim.SignalRef
	sent     [NumFaces]sim.SignalRef
	unpacks  [NumFaces]sim.SignalRef

	faces [NumFaces]face
}

// face is one face of a chare that has a neighbor across it. A face's
// arrivals all belong to the chare's current iteration (GPU-aware: the
// receive is posted by that iteration) or carry equal byte counts
// (host-staged: recvBytes), so its continuations need no per-call
// state.
type face struct {
	st        *chState
	id        int             // FaceXMinus..FaceZPlus
	ch        *comm.Channel   // GPU-aware: the channel to the neighbor
	recv      comm.Completion // GPU-aware: haloReceived on this face
	recvBytes int64           // host-staged: the size of the face's halos
}

// peer returns the index of the neighbor across f.
func (f *face) peer() [3]int {
	ni, _ := f.st.blk.neighbor(f.id)
	return ni
}

// face returns the record of face id, which must have a neighbor.
func (st *chState) face(id int) *face {
	for i := range st.faces[:st.nf] {
		if st.faces[i].id == id {
			return &st.faces[i]
		}
	}
	panic("jacobi: no neighbor across the face")
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

	sends sim.FreeList[haloSend] // recycled host-staged halo sends
}

// perFaceUnpack reports whether each halo arrival launches its face's
// unpack kernel at once, overlapping with other arrivals: FusionNone and
// FusionA, which fuses only the packs. Fused-unpack and graph modes only
// count the arrival, since their unpack cannot start until every halo
// is present (§III-D1).
func (drv *charmDriver) perFaceUnpack() bool {
	return (drv.opt.Fusion == FusionNone || drv.opt.Fusion == FusionA) && !drv.opt.Graphs
}

// RunCharm executes Jacobi3D with the Charm-style runtime on machine m.
func RunCharm(m *machine.Machine, cfg Config, opt CharmOpts) machine.Metrics {
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
		entryStart:    func(el *charm.Elem, ctx *charm.Ctx, msg charm.Msg) { drv.startIter(state(el), ctx) },
		entryRecvHalo: func(el *charm.Elem, ctx *charm.Ctx, msg charm.Msg) { recvHaloH(state(el), ctx, msg) },
	}
	states := make([]chState, nChares)
	drv.arr = charm.NewArray(rt, "block", [3]int{drv.d.Dims[0], drv.d.Dims[1], drv.d.Dims[2]},
		entries, func(ix charm.Index) any { return &states[drv.d.Flatten(ix)] })
	if opt.ResidualEvery > 0 {
		drv.resid = charm.NewReduction(drv.arr, 8)
	}
	drv.setup()
	return drv
}

// run executes the driver's iterations to completion.
func (drv *charmDriver) run() machine.Metrics {
	m := drv.rt.M
	drv.arr.Broadcast(charm.Msg{Entry: entryStart})
	m.Eng.Run()
	return m.Metrics((drv.tEnd - drv.tWarm) / sim.Time(drv.cfg.Iters))
}

func state(el *charm.Elem) *chState { return el.State.(*chState) }

// setup initializes per-chare streams, geometry, faces, channels, and
// graphs.
func (drv *charmDriver) setup() {
	m := drv.rt.M
	for _, el := range drv.arr.Elems() {
		st := state(el)
		st.drv, st.el = drv, el
		st.blk = drv.d.Block([3]int(el.Idx))
		st.produced = sim.FiredSignal().Ref()
		for id := 0; id < NumFaces; id++ {
			if _, ok := st.blk.neighbor(id); !ok {
				continue
			}
			f := &st.faces[st.nf]
			f.st, f.id = st, id
			f.recv = comm.Completion{Fn: haloReceived, Arg: unsafe.Pointer(f)}
			st.sent[st.nf] = sim.FiredSignal().Ref()
			st.nf++
		}
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
		if drv.opt.Optimized {
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
	}
	if drv.opt.GPUAware {
		// One channel per adjacent chare pair, created from the
		// lower-indexed side.
		for _, el := range drv.arr.Elems() {
			st := state(el)
			for i := range st.faces[:st.nf] {
				f := &st.faces[i]
				peer := drv.arr.Elem(charm.Index(f.peer()))
				if peer.Flat < el.Flat {
					continue
				}
				f.ch = drv.rt.Channel(el, peer)
				state(peer).face(Opposite(f.id)).ch = f.ch
			}
		}
	}
}

// startTask, afterTask and the face functions below are the chare's
// continuations in record form (charm.TaskFn, sim.ArgFunc): arg is the
// chState or the face.

// startTask starts the chare's next iteration.
func startTask(ctx *charm.Ctx, arg unsafe.Pointer) {
	st := (*chState)(arg)
	st.drv.startIter(st, ctx)
}

// afterTask runs once all halos of the iteration have arrived.
func afterTask(ctx *charm.Ctx, arg unsafe.Pointer) {
	st := (*chState)(arg)
	st.drv.afterHalos(st, ctx)
}

// haloReceived is a face's channel receive completion: it queues
// haloArrived on the chare's PE.
func haloReceived(_ *sim.Engine, arg unsafe.Pointer) {
	st := (*face)(arg).st
	rt := st.drv.rt
	rt.PE(st.el.PE()).Enqueue(charm.PrioHigh, rt.Opt.SchedOverhead, "haloArrived", st.el, haloArrived, arg)
}

// haloArrived delivers a GPU-aware halo arrival to the chare's gate.
func haloArrived(ctx *charm.Ctx, arg unsafe.Pointer) {
	st := (*face)(arg).st
	st.gate.Arrive(ctx, st.iter, unpackDevice, arg)
}

// unpackDevice is the gate action of a GPU-aware arrival: the face's
// unpack kernel when arrivals unpack one by one.
func unpackDevice(ctx *charm.Ctx, arg unsafe.Pointer) {
	f := (*face)(arg)
	if st := f.st; st.drv.perFaceUnpack() {
		st.addUnpack(ctx.LaunchKernelBytes(st.packS, "unpack", packKernelBytes(st.blk.FaceCells(f.id/2))))
	}
}

// unpackStaged is the gate action of a host-staged arrival: the H2D
// copy, then the face's unpack kernel behind it.
func unpackStaged(ctx *charm.Ctx, arg unsafe.Pointer) {
	f := (*face)(arg)
	st := f.st
	h2d := ctx.EnqueueCopy(st.h2dS, gpu.H2D, f.recvBytes, nil)
	ctx.GateStream(st.packS, h2d)
	st.addUnpack(ctx.LaunchKernelBytes(st.packS, "unpack", packKernelBytes(st.blk.FaceCells(f.id/2))))
}

// addUnpack records one of the iteration's unpack kernels.
func (st *chState) addUnpack(sig *sim.Signal) {
	st.unpacks[st.nUnpacks] = sig.Ref()
	st.nUnpacks++
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
func (drv *charmDriver) startIter(st *chState, ctx *charm.Ctx) {
	if st.iter == drv.cfg.Warmup && !st.warmReported {
		st.warmReported = true
		drv.warmC.Add(drv.rt.Engine())
	}
	if st.iter == drv.total {
		drv.doneC.Add(drv.rt.Engine())
		return
	}
	iter := st.iter
	st.nUnpacks = 0

	if drv.opt.GPUAware {
		drv.sendPhaseD(st, ctx, iter)
	} else {
		drv.sendPhaseH(st, ctx, iter)
	}

	st.gate.Expect(ctx, iter, st.nf, afterTask, unsafe.Pointer(st))
}

// allOf joins first and the signals refs refer to into one.
func (drv *charmDriver) allOf(first *sim.Signal, refs []sim.SignalRef) *sim.Signal {
	var sigs [NumFaces + 1]*sim.Signal
	list := append(sigs[:0], first)
	for _, r := range refs {
		list = append(list, r.Signal())
	}
	return sim.AllOf(drv.rt.Engine(), list...)
}

// sendPhaseD packs and sends halos over GPU-aware channels.
func (drv *charmDriver) sendPhaseD(st *chState, ctx *charm.Ctx, iter int) {
	opt := drv.rt.Opt
	eng := drv.rt.Engine()
	faces := st.faces[:st.nf]

	// Per-face data-ready signals for the sends. The previous
	// iteration's send completions feed this send phase's input gate.
	var ready [NumFaces]*sim.Signal
	inputReady := drv.allOf(st.produced.Signal(), st.sent[:st.nf])
	switch {
	case drv.opt.Graphs && iter > 0, drv.opt.Fusion == FusionC && iter > 0:
		// Packing already happened inside the previous graph / fused
		// kernel.
		produced := st.produced.Signal()
		for i := range faces {
			ready[i] = produced
		}
	case drv.opt.Fusion == FusionA || drv.opt.Fusion == FusionB ||
		(drv.opt.Fusion == FusionC && iter == 0) ||
		(drv.opt.Graphs && iter == 0 && drv.opt.Fusion != FusionNone):
		ctx.GateStream(st.packS, inputReady)
		one := ctx.LaunchKernelBytes(st.packS, "packAll", fusedPackBytes(st.blk.TotalFaceCells()))
		for i := range faces {
			ready[i] = one
		}
	default:
		ctx.GateStream(st.packS, inputReady)
		for i, f := range faces {
			ready[i] = ctx.LaunchKernelBytes(st.packS, "pack",
				packKernelBytes(st.blk.FaceCells(f.id/2)))
		}
	}

	for i := range faces {
		f := &faces[i]
		sendDone := eng.NewSignal()
		st.sent[i] = sendDone.Ref()
		ctx.Charge(opt.MsgHostOverhead)
		f.ch.Send(st.el.Flat, iter, st.blk.FaceBytes(f.id), ready[i], sendDone)
		ctx.Charge(opt.MsgHostOverhead)
		f.ch.Recv(st.el.Flat, iter, &f.recv)
	}
}

// haloSend is one host-staged halo message waiting for its staging
// copy: its face and the iteration it belongs to. Records are recycled
// through the driver's free list once the message is sent.
type haloSend struct {
	f    *face
	iter int
}

// haloStaged runs when a halo's staging copy has landed: it queues
// sendHalo on the chare's PE.
func haloStaged(_ *sim.Engine, arg unsafe.Pointer) {
	st := (*haloSend)(arg).f.st
	rt := st.drv.rt
	rt.PE(st.el.PE()).Enqueue(charm.PrioHigh, rt.Opt.SchedOverhead, "sendHalo", st.el, sendHalo, arg)
}

// sendHalo sends a staged halo to the neighbor as a runtime message,
// then recycles its record.
func sendHalo(ctx *charm.Ctx, arg unsafe.Pointer) {
	hs := (*haloSend)(arg)
	f := hs.f
	drv := f.st.drv
	ctx.Send(drv.arr, charm.Index(f.peer()), charm.Msg{
		Entry: entryRecvHalo,
		Ref:   hs.iter,
		Bytes: f.st.blk.FaceBytes(f.id),
		Data:  Opposite(f.id),
	})
	drv.sends.Put(hs)
}

// sendPhaseH packs halos, stages them to the host, and sends them as
// regular runtime messages (Charm-H).
func (drv *charmDriver) sendPhaseH(st *chState, ctx *charm.Ctx, iter int) {
	eng := drv.rt.Engine()
	ctx.GateStream(st.packS, st.produced.Signal())

	var sigs [NumFaces]*sim.Signal
	var staged [NumFaces]*haloSend
	faces := st.faces[:st.nf]
	for i := range faces {
		f := &faces[i]
		pack := ctx.LaunchKernelBytes(st.packS, "pack", packKernelBytes(st.blk.FaceCells(f.id/2)))
		sigs[i] = ctx.EnqueueCopy(st.d2hS, gpu.D2H, st.blk.FaceBytes(f.id), pack)
		hs := drv.sends.Get()
		hs.f, hs.iter = f, iter
		staged[i] = hs
	}
	if drv.opt.Optimized {
		// After-optimization: each halo is sent as soon as its staging
		// copy completes, with no blocking synchronization.
		for i, hs := range staged[:len(faces)] {
			sigs[i].OnFireArg(eng, haloStaged, unsafe.Pointer(hs))
		}
	} else {
		// Before-optimization: block the PE until all staging copies
		// finish, then send everything (the §III-C redundant sync).
		ctx.Block(sim.AllOf(eng, sigs[:len(faces)]...))
		for _, hs := range staged[:len(faces)] {
			ctx.Post(charm.PrioHigh, "sendHalo", sendHalo, unsafe.Pointer(hs))
		}
	}
}

// recvHaloH handles a host-staged halo message: its face's H2D transfer
// and unpack kernel run as the gate consumes it.
func recvHaloH(st *chState, ctx *charm.Ctx, msg charm.Msg) {
	f := st.face(msg.Data.(int))
	f.recvBytes = msg.Bytes
	st.gate.Arrive(ctx, msg.Ref, unpackStaged, unsafe.Pointer(f))
}

// afterHalos runs once all halos of the iteration have arrived: it
// launches the remaining kernels (per fusion/graph strategy) and
// advances to the next iteration.
func (drv *charmDriver) afterHalos(st *chState, ctx *charm.Ctx) {
	var produced *sim.Signal
	switch {
	case drv.opt.Graphs:
		produced = ctx.LaunchGraph(st.updS, st.graphs[st.iter%2])
	case drv.opt.Fusion == FusionC:
		// Single kernel: unpack + update + pack for the next iteration.
		// The pack portion writes the send buffers, so it must wait for
		// the previous sends to drain.
		ctx.GateStream(st.updS, drv.allOf(sim.FiredSignal(), st.sent[:st.nf]))
		produced = ctx.LaunchKernelBytes(st.updS, "fusedAll",
			fusedAllBytes(st.blk.Volume(), st.blk.TotalFaceCells()))
	case drv.opt.Fusion == FusionB:
		unp := ctx.LaunchKernelBytes(st.packS, "unpackAll", fusedPackBytes(st.blk.TotalFaceCells()))
		ctx.GateStream(st.updS, unp)
		produced = ctx.LaunchKernelBytes(st.updS, "update", updateKernelBytes(st.blk.Volume()))
	default:
		ctx.GateStream(st.updS, drv.allOf(sim.FiredSignal(), st.unpacks[:st.nUnpacks]))
		produced = ctx.LaunchKernelBytes(st.updS, "update", updateKernelBytes(st.blk.Volume()))
	}
	st.produced = produced.Ref()

	if drv.opt.ResidualEvery > 0 && (st.iter+1)%drv.opt.ResidualEvery == 0 {
		// Contribute asynchronously; the chare does not wait for the
		// reduction to reach the root.
		drv.resid.Contribute(ctx, st.iter)
	}

	st.iter++
	if drv.opt.Optimized {
		ctx.HAPICallback(st.updS, "nextIter", startTask, unsafe.Pointer(st))
	} else {
		// Before-optimization: synchronize with the device before
		// starting the next iteration.
		ctx.Block(produced)
		ctx.Post(charm.PrioHigh, "nextIter", startTask, unsafe.Pointer(st))
	}
}
