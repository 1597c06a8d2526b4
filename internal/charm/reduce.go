package charm

import (
	"unsafe"

	"gat/internal/sim"
)

// Reduction implements Charm++-style contributions: every element of an
// array contributes once per epoch; local contributions are aggregated
// on each PE and combined up a binary tree of PEs with small runtime
// messages; the root fires a completion callback. This is the
// mechanism behind CkCallback-based reductions (used for residual
// checks and termination detection in real Charm++ applications).
type Reduction struct {
	arr     *Array
	payload int64 // per-message contribution size in bytes

	epoch   int
	pending map[int]*reduceEpoch
}

type reduceEpoch struct {
	localLeft map[int]int // PE -> outstanding local contributions
	kidsLeft  map[int]int // PE -> outstanding child-tree messages
	done      TaskFn
	doneArg   unsafe.Pointer
	fired     bool
}

// reduceMsg is one PE's partial result on its way to its parent.
type reduceMsg struct {
	r   *Reduction
	st  *reduceEpoch
	src int
}

// NewReduction creates a reduction context over the array with the
// given contribution payload size.
func NewReduction(arr *Array, payload int64) *Reduction {
	return &Reduction{arr: arr, payload: payload, pending: make(map[int]*reduceEpoch)}
}

// tree topology over PEs: parent(p) = (p-1)/2.
func reduceParent(pe int) int { return (pe - 1) / 2 }

func reduceChildren(pe, numPE int) []int {
	var out []int
	for _, c := range []int{2*pe + 1, 2*pe + 2} {
		if c < numPE {
			out = append(out, c)
		}
	}
	return out
}

// epochState lazily builds the bookkeeping for an epoch.
func (r *Reduction) epochState(epoch int) *reduceEpoch {
	st, ok := r.pending[epoch]
	if !ok {
		st = &reduceEpoch{localLeft: make(map[int]int), kidsLeft: make(map[int]int)}
		numPE := r.arr.rt.NumPEs()
		for pe := 0; pe < numPE; pe++ {
			st.kidsLeft[pe] = len(reduceChildren(pe, numPE))
		}
		for _, el := range r.arr.Elems() {
			st.localLeft[el.PE()]++
		}
		r.pending[epoch] = st
	}
	return st
}

// Expect registers the root callback done(ctx, arg) for an epoch. It
// must be called before (or in the same event cascade as) the epoch's
// contributions complete.
func (r *Reduction) Expect(epoch int, done TaskFn, arg unsafe.Pointer) {
	st := r.epochState(epoch)
	st.done, st.doneArg = done, arg
}

// Contribute records one element's contribution for the epoch from
// within an entry method. When the last local contribution on a PE
// arrives and all child-tree messages are in, the PE forwards one
// message toward the root; the root runs the epoch callback.
func (r *Reduction) Contribute(ctx *Ctx, epoch int) {
	st := r.epochState(epoch)
	pe := ctx.PE().ID()
	if st.localLeft[pe] <= 0 {
		panic("charm: element over-contributed to reduction")
	}
	st.localLeft[pe]--
	r.maybeForward(ctx, st, pe)
}

// arriveFromChild processes a tree message from a child PE.
func (r *Reduction) arriveFromChild(ctx *Ctx, st *reduceEpoch, pe int) {
	st.kidsLeft[pe]--
	r.maybeForward(ctx, st, pe)
}

func (r *Reduction) maybeForward(ctx *Ctx, st *reduceEpoch, pe int) {
	if st.localLeft[pe] != 0 || st.kidsLeft[pe] != 0 {
		return
	}
	st.localLeft[pe] = -1 // mark forwarded; a PE folds exactly once
	rt := r.arr.rt
	if pe == 0 {
		if st.fired {
			panic("charm: reduction root fired twice")
		}
		st.fired = true
		if st.done != nil {
			st.done(ctx, st.doneArg)
		}
		return
	}
	// Forward the partial result to the parent PE as a small
	// high-priority runtime message.
	ctx.Charge(rt.Opt.MsgHostOverhead)
	m := &reduceMsg{r: r, st: st, src: pe}
	rt.Engine().InjectAt(ctx.Clock(), reduceSendFire, unsafe.Pointer(m))
}

// reduceSendFire sends a partial result toward the parent PE at the
// sender's staggered clock.
func reduceSendFire(eng *sim.Engine, arg unsafe.Pointer) {
	m := (*reduceMsg)(arg)
	rt := m.r.arr.rt
	srcNode := rt.M.NodeOf(m.src)
	dstNode := rt.M.NodeOf(reduceParent(m.src))
	size := m.r.payload + rt.Opt.Envelope
	rt.M.Net.Transfer(srcNode, dstNode, size, sim.FiredSignal()).OnFireArg(eng, reduceDeliverFire, arg)
}

// reduceDeliverFire queues an arrived partial result on the parent PE.
func reduceDeliverFire(_ *sim.Engine, arg unsafe.Pointer) {
	m := (*reduceMsg)(arg)
	rt := m.r.arr.rt
	rt.PE(reduceParent(m.src)).Enqueue(PrioHigh, rt.Opt.SchedOverhead, "reduce", nil, reduceArriveTask, arg)
}

// reduceArriveTask folds a child's partial result into its parent PE's.
func reduceArriveTask(ctx *Ctx, arg unsafe.Pointer) {
	m := (*reduceMsg)(arg)
	m.r.arriveFromChild(ctx, m.st, reduceParent(m.src))
}

// Done reports whether the epoch's reduction has completed at the root.
func (r *Reduction) Done(epoch int) bool {
	st, ok := r.pending[epoch]
	return ok && st.fired
}
