package app

import (
	"fmt"
	"unsafe"

	"gat/internal/charm"
	"gat/internal/comm"
	"gat/internal/gpu"
	"gat/internal/machine"
	"gat/internal/sim"
)

// miniMD is a molecular-dynamics proxy in the style of the workloads
// the paper's introduction motivates (NAMD-class simulations on
// thousands of GPUs). Space is decomposed into patches (chares); each
// timestep a patch runs a force kernel on the GPU, exchanges boundary
// atoms with its spatial neighbors over GPU-aware channels, and
// integrates. Unlike Jacobi's uniform grid the patch densities are
// non-uniform — a dense solvated-protein cluster in the middle of the
// domain — so the charm-lb variant also exercises periodic load
// balancing.
//
// Consumed Params: ODF (patches per PE, default 4) and Iters
// (timesteps, default 12). Global and Warmup are ignored: the problem
// weak-scales with the machine by construction and the cost model has
// no warm-up transient.
type miniMD struct{}

func init() { Register(miniMD{}) }

// miniMD cost-model constants: force kernels are ~30x the cost of a
// Jacobi update per byte (neighbor lists), boundary exchanges small.
const (
	mdAtomBytesPerPatch = 2 << 20
	mdBoundaryBytes     = 96 << 10
	mdForceCostFactor   = 30
	mdDefaultSteps      = 12
	mdDefaultODF        = 4
)

// MiniMDRebalanceEvery is the charm-lb variant's rebalancing period in
// steps: a run rebalances after every such step but its last, so one
// of MiniMDRebalanceEvery steps or fewer never does.
const MiniMDRebalanceEvery = 4

func (miniMD) Name() string { return "minimd" }

func (miniMD) Variants() []string { return []string{"charm-static", "charm-lb"} }

func (miniMD) Defaults(int) Params { return Params{ODF: mdDefaultODF, Iters: mdDefaultSteps} }

func (a miniMD) BuildRun(m *machine.Machine, variant string, p Params) (func() Metrics, error) {
	var balance bool
	switch variant {
	case "charm-static":
	case "charm-lb":
		balance = true
	default:
		return nil, badVariant(a, variant)
	}
	odf := p.ODF
	if odf <= 0 {
		odf = mdDefaultODF
	}
	steps := p.Iters
	if steps <= 0 {
		steps = mdDefaultSteps
	}
	return func() Metrics { return runMiniMD(m, odf, steps, balance) }, nil
}

// mdRun is one miniMD simulation: what every patch's continuations
// share.
type mdRun struct {
	rt      *charm.Runtime
	arr     *charm.Array
	done    *sim.Counter
	odf     int
	steps   int
	balance bool
}

// mdPatch is one spatial patch's state. Its continuations are static
// functions (charm.TaskFn, sim.ArgFunc) that take the patch as their
// argument.
type mdPatch struct {
	run      *mdRun
	el       *charm.Elem
	stream   *gpu.Stream
	channels []*comm.Channel
	gate     charm.Gate
	step     int
	density  float64 // relative atom density of this spatial region

	// recv is the boundary receives' completion, mdBoundary; recvPE is
	// the PE that posted them, where their arrivals queue even if the
	// patch migrates meanwhile.
	recv   comm.Completion
	recvPE *charm.PE
}

func runMiniMD(m *machine.Machine, odf, steps int, balance bool) Metrics {
	rt := charm.NewRuntime(m, charm.DefaultOptions())
	n := rt.NumPEs() * odf
	run := &mdRun{rt: rt, done: sim.NewCounter(n), odf: odf, steps: steps, balance: balance}

	entries := []charm.EntryFn{
		func(el *charm.Elem, ctx *charm.Ctx, msg charm.Msg) { mdStep(ctx, unsafe.Pointer(el.State.(*mdPatch))) },
	}
	// A 1-D chain of patches with a dense cluster in the middle — the
	// solvated-protein density profile in miniature.
	run.arr = charm.NewArray(rt, "patch", [3]int{n, 1, 1}, entries, func(ix charm.Index) any {
		density := 1.0
		if ix[0] >= n/3 && ix[0] < n/2 {
			density = 6.0
		}
		return &mdPatch{run: run, density: density}
	})

	elems := run.arr.Elems()
	for i, el := range elems {
		p := el.State.(*mdPatch)
		p.el = el
		p.recv = comm.Completion{Fn: mdBoundary, Arg: unsafe.Pointer(p)}
		// Channels are created once from the lower index.
		if i+1 < n {
			ch := rt.Channel(el, elems[i+1])
			p.channels = append(p.channels, ch)
			nxt := elems[i+1].State.(*mdPatch)
			nxt.channels = append([]*comm.Channel{ch}, nxt.channels...)
		}
	}

	run.arr.Broadcast(charm.Msg{Entry: 0})
	total := m.Eng.Run()
	if run.done.Remaining() != 0 {
		panic(fmt.Sprintf("minimd: %d patches did not finish", run.done.Remaining()))
	}
	return m.Metrics(total / sim.Time(steps))
}

// mdStep runs one timestep of a patch: the force kernel, then the
// boundary exchange with its neighbors.
func mdStep(ctx *charm.Ctx, arg unsafe.Pointer) {
	p := (*mdPatch)(arg)
	r := p.run
	if dev := r.rt.M.GPUOf(p.el.PE()); p.stream == nil || p.stream.Device() != dev {
		p.stream = dev.NewStream("force", gpu.PriorityNormal)
	}
	if p.step == r.steps {
		r.done.Add(ctx.Engine())
		return
	}
	step := p.step
	p.step++

	// Force computation scales with local density.
	forceBytes := int64(float64(mdAtomBytesPerPatch) * p.density * mdForceCostFactor / float64(r.odf))
	force := ctx.LaunchKernelBytes(p.stream, "force", forceBytes)

	// Exchange boundary atoms with spatial neighbors.
	p.recvPE = ctx.PE()
	for _, ch := range p.channels {
		ctx.Charge(500 * sim.Nanosecond)
		ch.Send(p.el.Flat, step, mdBoundaryBytes, force, nil)
		ctx.Charge(500 * sim.Nanosecond)
		ch.Recv(p.el.Flat, step, &p.recv)
	}
	p.gate.Expect(ctx, step, len(p.channels), mdIntegrate, arg)
}

// mdBoundary is a boundary receive's completion: it queues the arrival
// on the PE that posted the receive.
func mdBoundary(_ *sim.Engine, arg unsafe.Pointer) {
	p := (*mdPatch)(arg)
	p.recvPE.Enqueue(charm.PrioHigh, p.run.rt.Opt.SchedOverhead, "boundary", p.el, mdArrived, arg)
}

// mdArrived counts a boundary arrival for the step in flight, the one
// before p.step: the next step's receives are posted only once the
// gate has taken all of this step's.
func mdArrived(ctx *charm.Ctx, arg unsafe.Pointer) {
	p := (*mdPatch)(arg)
	p.gate.Arrive(ctx, p.step-1, nil, nil)
}

// mdIntegrate runs once every boundary of the step has arrived: the
// integrate kernel, then the next step via HAPI.
func mdIntegrate(ctx *charm.Ctx, arg unsafe.Pointer) {
	p := (*mdPatch)(arg)
	ctx.LaunchKernelBytes(p.stream, "integrate", mdAtomBytesPerPatch/int64(p.run.odf))
	ctx.HAPICallback(p.stream, "next", mdNext, arg)
}

// mdNext starts a rebalance from patch 0 every MiniMDRebalanceEvery steps
// when balancing, then the patch's next step.
func mdNext(ctx *charm.Ctx, arg unsafe.Pointer) {
	p := (*mdPatch)(arg)
	r := p.run
	if r.balance && p.step%MiniMDRebalanceEvery == 0 && p.step < r.steps && p.el.Flat == 0 {
		r.arr.RebalanceGreedy(mdAtomBytesPerPatch).OnFire(ctx.Engine(), func() {})
	}
	mdStep(ctx, arg)
}
