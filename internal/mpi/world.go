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
// per GPU. It keeps no match state of its own: unmatched operations
// wait in their destination rank's queues (see Rank).
type World struct {
	M     *machine.Machine
	Opt   Options
	ranks []*Rank

	// links recycles the match links of matched pairs as their pair
	// completes.
	links sim.FreeList[matchDone]
}

// pending is an unmatched send or receive, queued at its destination
// rank under its source rank and tag; done is the completion signal
// behind the operation's Request. bytes is a send's size.
type pending struct {
	src, tag int
	bytes    int64
	kind     BufKind
	done     *sim.Signal
}

// Request is a non-blocking operation handle: a reference to the
// operation's completion signal, an engine signal whose record returns
// to the engine's free list as it fires. The reference reads fired
// from then on, so a rank may test (Fired) or wait on a request any
// number of times, also after its record serves a later message.
type Request = sim.SignalRef

// NewWorld creates a world over m with one rank per GPU.
func NewWorld(m *machine.Machine, opt Options) *World {
	w := &World{M: m, Opt: opt}
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
//
// As MPI libraries do, a rank keeps two queues in posting order: the
// sends addressed to it that no receive has matched (unexpected) and
// the receives it posted that no send has matched (posted). A new
// operation takes the oldest entry of the other kind with its peer and
// tag, so messages between two ranks under one tag match in order.
// Each queue holds a rank's operations of an iteration or two in
// flight, a few entries long, and pops by copy-down, keeping its
// backing array for the next iteration.
type Rank struct {
	w    *World
	id   int
	proc *sim.Proc

	unexpected []pending
	posted     []pending
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
