package gpu

import (
	"unsafe"

	"gat/internal/sim"
)

// Graph is an executable graph of device operations with explicit
// dependencies — the CUDA Graphs analogue. A graph is captured once and
// launched many times; each launch costs Config.GraphLaunchHost on the
// host instead of one launch overhead per kernel, and each node pays the
// cheaper GraphNodeDispatch on the device.
//
// Node parameters are fixed at capture time (the CUDA Graphs
// restriction the paper works around in §III-D2 by capturing two graphs
// with swapped buffer pointers and alternating between them). The
// launch-invariant shape — each node's dependents and its dispatch
// label — is likewise built once, as nodes are added, so a launch only
// resets per-instance countdowns.
type Graph struct {
	nodes []*GraphNode
	// free holds finished launch instances for reuse; a graph normally
	// has at most one instance in flight.
	free []*graphExec
}

// GraphNode is one operation in a graph.
type GraphNode struct {
	label string
	kind  opKind // opKernel or opCopy
	dur   sim.Time
	bytes int64
	dir   CopyDir
	deps  []*GraphNode
	index int
	// children lists the indices of the nodes that depend on this one,
	// in the order they were added.
	children []int
	// execLabel is the label the node's kernel runs under ("graph/" +
	// label).
	execLabel string
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{} }

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.nodes) }

// TotalKernelTime returns the sum of the graph's kernel durations,
// used for load accounting.
func (g *Graph) TotalKernelTime() sim.Time {
	var total sim.Time
	for _, n := range g.nodes {
		if n.kind == opKernel {
			total += n.dur
		}
	}
	return total
}

// add appends n, wiring it into its dependencies' child lists.
func (g *Graph) add(n *GraphNode) *GraphNode {
	n.index = len(g.nodes)
	for _, dep := range n.deps {
		dep.children = append(dep.children, n.index)
	}
	g.nodes = append(g.nodes, n)
	return n
}

// AddKernel adds a kernel node that runs after all deps complete.
func (g *Graph) AddKernel(label string, dur sim.Time, deps ...*GraphNode) *GraphNode {
	return g.add(&GraphNode{label: label, execLabel: "graph/" + label, kind: opKernel, dur: dur, deps: deps})
}

// AddCopy adds a DMA node that runs after all deps complete.
func (g *Graph) AddCopy(dir CopyDir, bytes int64, deps ...*GraphNode) *GraphNode {
	return g.add(&GraphNode{label: dir.String(), kind: opCopy, bytes: bytes, dir: dir, deps: deps})
}

// Launch enqueues one execution of the graph on the stream and returns
// its completion signal, valid until it fires. The caller charges
// Config.GraphLaunchHost to the launching CPU.
//
//gat:hotpath
func (s *Stream) Launch(g *Graph) *sim.Signal {
	if g.Len() == 0 {
		return sim.FiredSignal()
	}
	o := s.newOp()
	o.kind, o.label, o.graph = opGraph, "graph", g
	return s.enqueue(o)
}

// graphExec is one launched instance of a graph: per-node dependency
// countdowns, the nodes still running, and one completion record per
// node, so node completions dispatch through a static function.
type graphExec struct {
	g         *Graph
	s         *Stream
	remaining int
	indeg     []int
	nodes     []graphNodeRun
}

// graphNodeRun is the completion record of one node of an instance.
type graphNodeRun struct {
	ex  *graphExec
	idx int
}

// launchGraphInstance executes one instance of g, completing the
// stream's head op when every node has finished. Node-level parallelism
// is bounded by the device engines, as on real hardware.
//
//gat:hotpath
func (s *Stream) launchGraphInstance(g *Graph) {
	var ex *graphExec
	if k := len(g.free); k > 0 {
		ex = g.free[k-1]
		g.free[k-1] = nil
		g.free = g.free[:k-1]
	} else {
		ex = &graphExec{g: g}
	}
	n := len(g.nodes)
	if cap(ex.indeg) < n {
		ex.indeg = make([]int, n)
		ex.nodes = make([]graphNodeRun, n)
	}
	ex.indeg, ex.nodes = ex.indeg[:n], ex.nodes[:n]
	ex.s, ex.remaining = s, n
	for i, nd := range g.nodes {
		ex.indeg[i] = len(nd.deps)
		ex.nodes[i] = graphNodeRun{ex: ex, idx: i}
	}
	for i := range g.nodes {
		if ex.indeg[i] == 0 {
			ex.start(i)
		}
	}
}

// start dispatches node i of the instance.
//
//gat:hotpath
func (ex *graphExec) start(i int) {
	n := ex.g.nodes[i]
	d := ex.s.dev
	arg := unsafe.Pointer(&ex.nodes[i])
	switch n.kind {
	case opKernel:
		d.submitCompute(ex.s.prio, n.execLabel, d.cfg.GraphNodeDispatch+n.dur, graphNodeDone, arg)
	case opCopy:
		d.copyCount++
		d.copyPipe(n.dir).TransferAfter(sim.FiredSignal(), n.bytes).OnFireArg(d.eng, graphNodeDone, arg)
	default:
		panic("gpu: unsupported graph node kind")
	}
}

// graphNodeDone retires one node: it releases the node's dependents in
// insertion order and, after the last node, returns the instance to its
// graph and completes the stream's head op.
//
//gat:hotpath
func graphNodeDone(_ *sim.Engine, arg unsafe.Pointer) {
	r := (*graphNodeRun)(arg)
	ex := r.ex
	ex.remaining--
	for _, c := range ex.g.nodes[r.idx].children {
		ex.indeg[c]--
		if ex.indeg[c] == 0 {
			ex.start(c)
		}
	}
	if ex.remaining == 0 {
		s := ex.s
		ex.s = nil
		ex.g.free = append(ex.g.free, ex)
		s.complete()
	}
}
