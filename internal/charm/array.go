package charm

import (
	"fmt"
	"unsafe"

	"gat/internal/sim"
)

// Index is a 3-D chare array index. 1-D and 2-D arrays use trailing
// zeros.
type Index [3]int

func (ix Index) String() string { return fmt.Sprintf("(%d,%d,%d)", ix[0], ix[1], ix[2]) }

// Msg is an entry-method invocation message.
type Msg struct {
	// Entry selects the registered entry method.
	Entry int
	// Ref is the SDAG reference number (the iteration in Jacobi3D).
	Ref int
	// Bytes is the payload size, which determines transfer and
	// pack/unpack costs. Zero for control messages.
	Bytes int64
	// Data carries arbitrary model-level payload.
	Data any
}

// EntryFn is one entry method: it runs to completion on the element's
// PE with a Ctx accounting its host time.
type EntryFn func(elem *Elem, ctx *Ctx, m Msg)

// Elem is one element of a chare array.
type Elem struct {
	Arr   *Array
	Idx   Index
	Flat  int
	State any
	// Busy accumulates host time consumed by this element's entries.
	Busy sim.Time
	// GPULoad accumulates device time launched on behalf of this
	// element. Busy + GPULoad is the load-balancing metric.
	GPULoad sim.Time
}

// Load returns the element's total measured load (host + device).
func (el *Elem) Load() sim.Time { return el.Busy + el.GPULoad }

// PE returns the element's current PE id (elements migrate).
func (el *Elem) PE() int { return el.Arr.peOf[el.Flat] }

// Array is a chare array: an indexed collection of elements distributed
// over PEs with a location manager.
type Array struct {
	rt      *Runtime
	name    string
	dims    [3]int
	elems   []*Elem // ordered by flat index, for deterministic iteration
	peOf    []int
	entries []EntryFn
	labels  []string // per-entry task labels, "<name>.e<entry>"
}

// NewArray creates a dims[0]×dims[1]×dims[2] chare array with the given
// entry methods, distributing elements to PEs with the default block
// mapping (consecutive elements to each PE, as in Charm++). factory
// builds each element's state.
func NewArray(rt *Runtime, name string, dims [3]int, entries []EntryFn, factory func(Index) any) *Array {
	n := dims[0] * dims[1] * dims[2]
	if n <= 0 {
		panic("charm: array needs positive dimensions")
	}
	a := &Array{rt: rt, name: name, dims: dims, entries: entries}
	for i := range entries {
		a.entryLabel(i)
	}
	numPE := rt.NumPEs()
	for flat := 0; flat < n; flat++ {
		ix := a.Unflatten(flat)
		el := &Elem{Arr: a, Idx: ix, Flat: flat, State: factory(ix)}
		a.elems = append(a.elems, el)
		// Block map: ceil(n/numPE)-sized contiguous chunks.
		per := (n + numPE - 1) / numPE
		a.peOf = append(a.peOf, flat/per)
	}
	return a
}

// entryLabel returns the task label of entry e, building it on first
// use; NewArray builds every registered entry's, so delivery only looks
// them up.
func (a *Array) entryLabel(e int) string {
	for len(a.labels) <= e {
		a.labels = append(a.labels, fmt.Sprintf("%s.e%d", a.name, len(a.labels)))
	}
	return a.labels[e]
}

// Len returns the number of elements.
func (a *Array) Len() int { return len(a.elems) }

// Flatten converts an index to its flat position.
func (a *Array) Flatten(ix Index) int {
	return (ix[0]*a.dims[1]+ix[1])*a.dims[2] + ix[2]
}

// Unflatten converts a flat position to an index.
func (a *Array) Unflatten(flat int) Index {
	z := flat % a.dims[2]
	y := (flat / a.dims[2]) % a.dims[1]
	x := flat / (a.dims[1] * a.dims[2])
	return Index{x, y, z}
}

// Elem returns the element at ix.
func (a *Array) Elem(ix Index) *Elem { return a.elems[a.Flatten(ix)] }

// Elems returns all elements in flat-index order.
func (a *Array) Elems() []*Elem { return a.elems }

// ElemsOnPE returns the elements currently mapped to PE pe, in flat
// order.
func (a *Array) ElemsOnPE(pe int) []*Elem {
	var out []*Elem
	for _, el := range a.elems {
		if a.peOf[el.Flat] == pe {
			out = append(out, el)
		}
	}
	return out
}

// deliver enqueues the entry invocation at the element's PE. recvCost
// covers scheduling, dispatch, and payload unpacking. The task carries
// the array and message itself, so delivery creates no closure.
//
//gat:hotpath
func (a *Array) deliver(el *Elem, m Msg) {
	rt := a.rt
	pe := rt.PE(a.peOf[el.Flat])
	cost := rt.Opt.SchedOverhead + rt.Opt.EntryOverhead + rt.payloadCost(m.Bytes)
	pe.enqueue(PrioNormal, task{cost: cost, label: a.entryLabel(m.Entry), elem: el, msg: m})
}

// Send invokes entry m.Entry on element ix from within a running entry
// method, charging the sender's host overhead (message allocation plus
// payload packing) and routing the message through the machine: a
// same-PE message is enqueued locally, a same-node message crosses the
// intra-node path, and a remote message crosses the network.
func (ctx *Ctx) Send(a *Array, ix Index, m Msg) {
	rt := ctx.pe.rt
	ctx.clock += rt.Opt.MsgHostOverhead + rt.payloadCost(m.Bytes)
	c := rt.newCall()
	c.arr, c.elem, c.msg, c.srcPE = a, a.Elem(ix), m, ctx.pe.id
	ctx.schedule(sendFire, c)
}

// sendFire injects a Send at the sender's staggered clock: the message
// is delivered directly when the element lives on the sending PE, and
// otherwise crosses the machine first.
//
//gat:hotpath
func sendFire(_ *sim.Engine, arg unsafe.Pointer) {
	c := (*call)(arg)
	a, el := c.arr, c.elem
	dstPE := a.peOf[el.Flat]
	if dstPE == c.srcPE {
		m := c.msg
		c.release()
		a.deliver(el, m)
		return
	}
	rt := c.rt
	srcNode := rt.M.NodeOf(c.srcPE)
	dstNode := rt.M.NodeOf(dstPE)
	size := c.msg.Bytes + rt.Opt.Envelope
	rt.M.Net.Transfer(srcNode, dstNode, size, sim.FiredSignal()).OnFireArg(rt.M.Eng, sendArriveFire, arg)
}

// sendArriveFire delivers a Send whose transfer has arrived.
//
//gat:hotpath
func sendArriveFire(_ *sim.Engine, arg unsafe.Pointer) {
	c := (*call)(arg)
	a, el, m := c.arr, c.elem, c.msg
	c.release()
	a.deliver(el, m)
}

// Invoke delivers an entry invocation from driver code (outside any
// entry method), modelling the main-chare broadcast that starts a
// program. No sender-side cost is charged.
func (a *Array) Invoke(ix Index, m Msg) {
	a.deliver(a.Elem(ix), m)
}

// Broadcast invokes the entry on every element, in flat order.
func (a *Array) Broadcast(m Msg) {
	for _, el := range a.elems {
		a.deliver(el, m)
	}
}
