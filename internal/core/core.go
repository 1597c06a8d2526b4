// Package core is the top-level API of the library: GPU-aware
// asynchronous tasks. It composes the simulated machine, the
// message-driven tasking runtime, the GPU device model, and the
// GPU-aware communication layer into one System, the entry point the
// examples and tools build on.
//
// The design follows the paper's thesis: decompose work into more tasks
// (chares) than processors, let a message-driven scheduler interleave
// them so communication of one task overlaps computation of others, and
// move device buffers directly between GPUs (Channel API / GPUDirect)
// instead of staging through host memory.
package core

import (
	"gat/internal/charm"
	"gat/internal/comm"
	"gat/internal/gpu"
	"gat/internal/machine"
	"gat/internal/sim"
)

// System is one assembled simulation: a cluster plus a tasking runtime.
type System struct {
	M  *machine.Machine
	RT *charm.Runtime
}

// NewSystem builds a Summit-like cluster with the given node count and
// a runtime with one PE per GPU.
func NewSystem(nodes int) *System {
	return NewSystemOn(machine.MustNew(machine.Summit(nodes)))
}

// NewSystemOn attaches a tasking runtime (one PE per GPU) to an
// existing machine — the path scenario apps use, since the experiment
// layer owns machine construction.
func NewSystemOn(m *machine.Machine) *System {
	return &System{M: m, RT: charm.NewRuntime(m, charm.DefaultOptions())}
}

// Engine returns the simulation engine.
func (s *System) Engine() *sim.Engine { return s.M.Eng }

// Run executes the simulation until no work remains and returns the
// final virtual time.
func (s *System) Run() sim.Time { return s.M.Eng.Run() }

// NewTaskArray creates a 1-D task array of count tasks, mapped onto
// the PEs in contiguous blocks; more tasks than PEs overdecomposes.
func (s *System) NewTaskArray(name string, count int, entries []charm.EntryFn, factory func(charm.Index) any) *charm.Array {
	return charm.NewArray(s.RT, name, [3]int{count, 1, 1}, entries, factory)
}

// GPUFor returns the device bound to the element's current PE.
func (s *System) GPUFor(el *charm.Elem) *gpu.Device {
	return s.M.GPUOf(el.PE())
}

// Channel opens a GPU-aware communication channel between two task
// elements (Channel API, §II-B).
func (s *System) Channel(a, b *charm.Elem) *comm.Channel {
	return comm.NewChannel(s.M.Net,
		comm.Endpoint{Proc: a.Flat, Node: s.M.NodeOf(a.PE())},
		comm.Endpoint{Proc: b.Flat, Node: s.M.NodeOf(b.PE())})
}
