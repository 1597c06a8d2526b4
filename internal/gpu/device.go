// Package gpu models a CUDA-capable accelerator on the discrete-event
// simulator: streams with priorities, kernels with launch overheads,
// dual DMA copy engines, host callbacks, and executable graphs of
// kernels.
//
// The compute side is modelled as a serial priority server. For the
// memory-bandwidth-bound kernels of stencil codes this is equivalent in
// aggregate to concurrent execution with shared bandwidth (processor
// sharing): k concurrent kernels each run k times slower, so total
// completion time is unchanged, while priority queueing still lets small
// high-priority packing kernels bypass queued bulk work — the behaviour
// the paper relies on in §III-A.
package gpu

import (
	"fmt"
	"unsafe"

	"gat/internal/sim"
)

// Config holds the device cost model. All host-side costs are *not*
// charged by this package; they are exposed so the calling runtime (a PE
// scheduler or an MPI rank) can charge them to the correct CPU.
type Config struct {
	// MemBandwidth is the effective device memory bandwidth in bytes/s,
	// used by callers to derive kernel durations.
	MemBandwidth float64
	// CopyBandwidth is the host-link (NVLink/PCIe) bandwidth per DMA
	// engine in bytes/s.
	CopyBandwidth float64
	// CopySetup is the fixed device-side setup time per DMA transfer.
	CopySetup sim.Time
	// KernelLaunchHost is the host CPU cost of launching one kernel.
	KernelLaunchHost sim.Time
	// CopyLaunchHost is the host CPU cost of enqueueing one async copy.
	CopyLaunchHost sim.Time
	// KernelDispatch is the device-side latency from a kernel reaching
	// the head of its stream to execution beginning, when idle.
	KernelDispatch sim.Time
	// GraphLaunchHost is the host CPU cost of launching one executable
	// graph, replacing per-kernel launch costs.
	GraphLaunchHost sim.Time
	// GraphNodeHost is the additional host cost per graph node at
	// launch (parameter validation scales mildly with graph size).
	GraphNodeHost sim.Time
	// GraphNodeDispatch is the device-side dispatch cost per graph node,
	// cheaper than KernelDispatch because dependencies are pre-resolved.
	GraphNodeDispatch sim.Time
	// SyncOverhead is the host cost of a stream/device synchronize call
	// in addition to the actual wait.
	SyncOverhead sim.Time
	// MemCapacity is the device memory capacity in bytes; zero means
	// MemCapacityV100.
	MemCapacity int64
}

// V100 returns a cost model calibrated to an NVIDIA Tesla V100 on a
// Summit node (HBM2 roofline, NVLink2 host link).
func V100() Config {
	return Config{
		MemBandwidth:      780e9,
		CopyBandwidth:     45e9,
		CopySetup:         1800 * sim.Nanosecond,
		KernelLaunchHost:  6500 * sim.Nanosecond,
		CopyLaunchHost:    3500 * sim.Nanosecond,
		KernelDispatch:    1200 * sim.Nanosecond,
		GraphLaunchHost:   8000 * sim.Nanosecond,
		GraphNodeHost:     800 * sim.Nanosecond,
		GraphNodeDispatch: 600 * sim.Nanosecond,
		SyncOverhead:      4000 * sim.Nanosecond,
	}
}

// CopyDir is the direction of a host<->device DMA transfer.
type CopyDir int

// Transfer directions.
const (
	D2H CopyDir = iota // device to host
	H2D                // host to device
)

func (d CopyDir) String() string {
	if d == D2H {
		return "d2h"
	}
	return "h2d"
}

// Device is one simulated GPU.
type Device struct {
	eng  *sim.Engine
	cfg  Config
	name string

	ready     readyHeap
	busy      bool
	busyAccum sim.Time
	seq       uint64

	// The compute engine is a serial server, so at most one item is in
	// flight; its bookkeeping lives on the device and the completion
	// event schedules completeFn — one thunk created at New, instead of
	// one closure allocated per dispatched kernel.
	curService sim.Time
	curStart   sim.Time
	curLabel   string
	curFn      sim.ArgFunc
	curArg     unsafe.Pointer
	completeFn func()

	d2h, h2d *sim.Pipe

	// streamPool holds the reusable transient streams handed out by
	// AcquireStream; an entry with an empty op queue is idle and may be
	// re-acquired.
	streamPool []*Stream

	// freeOps recycles stream ops: each returns as it completes, so
	// their memory is bounded by the ops in flight.
	freeOps sim.FreeList[op]

	kernelCount uint64
	copyCount   uint64

	// durCache memoizes KernelTime results (see there); durNext is the
	// round-robin eviction cursor.
	durCache [8]durEntry
	durNext  int

	memCapacity int64
	memUsed     int64
}

// New creates a device attached to engine e.
func New(e *sim.Engine, name string, cfg Config) *Device {
	capacity := cfg.MemCapacity
	if capacity == 0 {
		capacity = MemCapacityV100
	}
	d := &Device{
		eng:         e,
		cfg:         cfg,
		name:        name,
		d2h:         sim.NewPipe(e, name+"/d2h", cfg.CopyBandwidth, cfg.CopySetup),
		h2d:         sim.NewPipe(e, name+"/h2d", cfg.CopyBandwidth, cfg.CopySetup),
		memCapacity: capacity,
	}
	d.completeFn = d.complete
	return d
}

// Name returns the device name.
func (d *Device) Name() string { return d.name }

// Config returns the device cost model.
func (d *Device) Config() Config { return d.cfg }

// Engine returns the simulation engine.
func (d *Device) Engine() *sim.Engine { return d.eng }

// BusyTime returns cumulative compute-engine busy time.
func (d *Device) BusyTime() sim.Time { return d.busyAccum }

// KernelsLaunched returns the number of kernels executed, including
// graph nodes.
func (d *Device) KernelsLaunched() uint64 { return d.kernelCount }

// CopiesIssued returns the number of DMA transfers executed.
func (d *Device) CopiesIssued() uint64 { return d.copyCount }

// KernelTime returns the device time of a memory-bound kernel moving the
// given number of bytes, per the roofline model. An iterative workload
// launches the same few kernel sizes every step, so the float division
// behind DurationOf is memoized in a small per-device table (exact
// values: a hit returns the very Time a miss computed earlier).
//
//gat:hotpath
func (d *Device) KernelTime(bytes int64) sim.Time {
	for i := range d.durCache {
		if c := &d.durCache[i]; c.bytes == bytes && c.dur != 0 {
			return c.dur
		}
	}
	dur := sim.DurationOf(bytes, d.cfg.MemBandwidth)
	d.durCache[d.durNext] = durEntry{bytes: bytes, dur: dur}
	d.durNext = (d.durNext + 1) % len(d.durCache)
	return dur
}

// durEntry is one memoized KernelTime result. dur == 0 marks an empty
// slot; a genuinely zero-duration kernel (bytes == 0) recomputes every
// time, which is harmless.
type durEntry struct {
	bytes int64
	dur   sim.Time
}

// Stream priorities. Lower values run first when the compute engine
// picks among eligible work, mirroring CUDA stream priorities.
const (
	PriorityHigh   = 0
	PriorityNormal = 1
)

// readyItem is a unit of compute work eligible for dispatch. Its
// completion action is a static function with a record argument (the
// stream, or one graph node of a launched instance), so queueing
// compute work creates no closure.
type readyItem struct {
	prio    int
	seq     uint64
	service sim.Time
	label   string
	fn      sim.ArgFunc
	arg     unsafe.Pointer
}

// readyHeap is a monomorphic 4-ary min-heap ordered by (prio, seq):
// the container/heap interface would box every readyItem on Push and
// Pop, and kernel dispatch sits on the per-iteration hot path of every
// simulation.
type readyHeap []readyItem

// before reports whether a dispatches before b: higher priority (lower
// value) first, then submission order.
func (a readyItem) before(b readyItem) bool {
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

// push inserts it, holding it aside and shifting displaced parents
// down — one copy per level instead of a swap.
//
//gat:hotpath
func (h *readyHeap) push(it readyItem) {
	q := append(*h, it)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !it.before(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = it
	*h = q
}

// popMin removes and returns the first item to dispatch, zeroing the
// vacated tail slot so it does not retain the item's record.
//
//gat:hotpath
func (h *readyHeap) popMin() readyItem {
	q := *h
	min := q[0]
	n := len(q) - 1
	tail := q[n]
	q[n] = readyItem{}
	q = q[:n]
	*h = q
	if n == 0 {
		return min
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		best := c
		hi := c + 4
		if hi > n {
			hi = n
		}
		for j := c + 1; j < hi; j++ {
			if q[j].before(q[best]) {
				best = j
			}
		}
		if !q[best].before(tail) {
			break
		}
		q[i] = q[best]
		i = best
	}
	q[i] = tail
	return min
}

// submitCompute queues work for the serial compute engine; fn(arg)
// runs when it completes.
//
//gat:hotpath
func (d *Device) submitCompute(prio int, label string, service sim.Time, fn sim.ArgFunc, arg unsafe.Pointer) {
	d.seq++
	d.ready.push(readyItem{prio: prio, seq: d.seq, service: service, label: label, fn: fn, arg: arg})
	d.tryDispatch()
}

func (d *Device) tryDispatch() {
	if d.busy || len(d.ready) == 0 {
		return
	}
	it := d.ready.popMin()
	d.busy = true
	d.kernelCount++
	d.curService, d.curStart, d.curLabel = it.service, d.eng.Now(), it.label
	d.curFn, d.curArg = it.fn, it.arg
	d.eng.At(d.eng.Now()+it.service, d.completeFn)
}

// complete finishes the in-flight compute item. The current item's
// fields are copied out first: its completion action may submit new
// work, which re-dispatches and overwrites them.
func (d *Device) complete() {
	service, start, label, fn, arg := d.curService, d.curStart, d.curLabel, d.curFn, d.curArg
	d.curFn, d.curArg = nil, nil
	d.busyAccum += service
	if tr := d.eng.Tracer(); tr != nil {
		tr.Add(sim.Span{Resource: d.name, Label: label, Start: start, End: d.eng.Now()})
	}
	d.busy = false
	fn(d.eng, arg)
	d.tryDispatch()
}

func (d *Device) copyPipe(dir CopyDir) *sim.Pipe {
	if dir == D2H {
		return d.d2h
	}
	return d.h2d
}

func (d *Device) String() string {
	return fmt.Sprintf("%s(kernels=%d copies=%d busy=%v)", d.name, d.kernelCount, d.copyCount, d.busyAccum)
}
