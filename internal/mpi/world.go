// Package mpi implements an MPI-like runtime on the discrete-event
// simulator: ranks as blocking processes, non-blocking point-to-point
// with tag matching, waitall, barrier and allreduce collectives, and
// the two device-buffer transfer policies the paper measures — plain
// host buffers (MPI-H, the application stages data itself) and
// CUDA-aware device buffers (MPI-D, the library moves GPU memory and
// switches to pipelined host staging above a size threshold, as IBM
// Spectrum MPI does).
package mpi

import (
	"fmt"

	"gat/internal/gpu"
	"gat/internal/machine"
	"gat/internal/sim"
)

// Options is the MPI library cost model.
type Options struct {
	// CallOverhead is the host cost of each MPI call (Isend, Irecv,
	// Wait*).
	CallOverhead sim.Time
	// PipelineThreshold is the device-buffer message size at and above
	// which the library abandons GPUDirect for pipelined host staging
	// (Spectrum MPI's large-message protocol, §IV-B).
	PipelineThreshold int64
}

// DefaultOptions returns the Summit/Spectrum-MPI calibration.
func DefaultOptions() Options {
	return Options{
		CallOverhead:      1200 * sim.Nanosecond,
		PipelineThreshold: 1 << 20,
	}
}

// BufKind says where a communication buffer lives.
type BufKind int

// Buffer locations.
const (
	Host BufKind = iota
	Device
)

// World is an MPI communicator over all ranks of a machine, one rank
// per GPU.
type World struct {
	M     *machine.Machine
	Opt   Options
	ranks []*Rank

	// match holds unmatched sends and receives keyed by (src, dst,
	// tag). Both directions share one slot so posting an operation
	// costs a single map lookup — tag matching is on the per-message
	// hot path, and hashing the three-int key twice showed up in
	// profiles. Emptied slots are deleted and recycled through free:
	// halo-exchange tags embed the iteration number, so without
	// recycling the map would grow by every key ever used over a run.
	match map[matchKey]*matchSlot
	free  []*matchSlot

	// collEpoch backs NextEpoch. Per-world state: a process-global
	// counter would be shared by concurrently sweeping runs.
	collEpoch int

	// links recycles the match links of matched pairs as their pair
	// completes.
	links sim.FreeList[matchDone]
}

// matchKey packs (src, dst, tag) into one word: posting a message hashes
// the key once, and hashing a single uint64 is measurably cheaper than
// hashing a three-int struct on the per-message hot path. Ranks use 16
// bits and tags 32 — biased by 2^31 so the negative collective tag
// space fits — enough for any configuration the simulator can build;
// newMatchKey panics loudly rather than silently colliding if a tag
// scheme ever outgrows that.
type matchKey uint64

//gat:hotpath
func newMatchKey(src, dst, tag int) matchKey {
	t := uint64(tag) + 1<<31
	if uint(src)|uint(dst) >= 1<<16 || t >= 1<<32 {
		panic("mpi: rank or tag exceeds match-key range")
	}
	return matchKey(uint64(src)<<48 | uint64(dst)<<32 | t)
}

func (k matchKey) src() int { return int(k >> 48) }
func (k matchKey) dst() int { return int(k >> 32 & 0xffff) }

// matchSlot queues unmatched operations for one (src, dst, tag). The
// queues pop head-first by copy-down, preserving capacity: a matched
// pair usually leaves the slot empty, and the next iteration's
// operations reuse the backing arrays.
type matchSlot struct {
	sends []pendingSend
	recvs []pendingRecv
}

//gat:hotpath
func (w *World) slot(key matchKey) *matchSlot {
	s := w.match[key]
	if s == nil {
		if n := len(w.free); n > 0 {
			s = w.free[n-1]
			w.free[n-1] = nil
			w.free = w.free[:n-1]
		} else {
			s = &matchSlot{}
		}
		//gat:alloc-ok intentional single-lookup tag matching; recycled slots keep the map at steady-state size
		w.match[key] = s
	}
	return s
}

// release returns an emptied slot to the freelist. Its backing arrays
// come along, so the next key reuses them.
//
//gat:hotpath
func (w *World) release(key matchKey, s *matchSlot) {
	//gat:alloc-ok paired with slot's insert; deleting returns the slot to the freelist without growth
	delete(w.match, key)
	w.free = append(w.free, s)
}

// pendingSend and pendingRecv are unmatched operations; done is the
// completion signal behind the operation's Request.
type pendingSend struct {
	bytes int64
	kind  BufKind
	done  *sim.Signal
}

type pendingRecv struct {
	kind BufKind
	done *sim.Signal
}

// Request is a non-blocking operation handle: a reference to the
// operation's completion signal, an engine signal whose record returns
// to the engine's free list as it fires. The reference reads fired
// from then on, so a rank may test (Fired) or wait on a request any
// number of times, also after its record serves a later message.
type Request = sim.SignalRef

// NewWorld creates a world over m with one rank per GPU.
func NewWorld(m *machine.Machine, opt Options) *World {
	w := &World{
		M:     m,
		Opt:   opt,
		match: make(map[matchKey]*matchSlot),
	}
	for i := 0; i < m.Procs(); i++ {
		w.ranks = append(w.ranks, &Rank{w: w, id: i})
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Run spawns every rank executing body and runs the simulation to
// completion, returning the final virtual time.
func (w *World) Run(body func(r *Rank)) sim.Time {
	for _, r := range w.ranks {
		r := r
		r.proc = w.M.Eng.Spawn(fmt.Sprintf("rank%d", r.id), func(p *sim.Proc) {
			body(r)
		})
	}
	return w.M.Eng.Run()
}

// Rank is one MPI process bound to a host core and one GPU.
type Rank struct {
	w    *World
	id   int
	proc *sim.Proc
}

// ID returns the rank number.
func (r *Rank) ID() int { return r.id }

// Size returns the communicator size.
func (r *Rank) Size() int { return r.w.Size() }

// Proc returns the simulated process backing the rank.
func (r *Rank) Proc() *sim.Proc { return r.proc }

// GPU returns the device bound to this rank.
func (r *Rank) GPU() *gpu.Device { return r.w.M.GPUOf(r.id) }

// Node returns the node housing this rank.
func (r *Rank) Node() int { return r.w.M.NodeOf(r.id) }

// Engine returns the simulation engine.
func (r *Rank) Engine() *sim.Engine { return r.w.M.Eng }

// Compute blocks the rank for d of host computation.
func (r *Rank) Compute(d sim.Time) { r.proc.Sleep(d) }
