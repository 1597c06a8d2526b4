// Load-balance example: the adaptive-runtime payoff of
// overdecomposition (§I). A stencil-like task array has a hot corner —
// some tasks cost 8x more GPU work than others. Because work lives in
// migratable chares, the greedy load balancer can redistribute them;
// with one task per PE there is nothing to move.
//
// Run: go run ./examples/loadbalance
package main

import (
	"fmt"
	"unsafe"

	"gat/internal/charm"
	"gat/internal/core"
	"gat/internal/gpu"
	"gat/internal/sim"
)

const (
	nodes  = 2
	odf    = 4
	phases = 6
	steps  = 5 // GPU rounds per phase
)

// stencil is what one run's tasks share.
type stencil struct {
	sys       *core.System
	phaseDone *sim.Counter
}

// work is one task. Its continuation, drive, is a static function that
// takes the task as its argument (charm.TaskFn).
type work struct {
	run    *stencil
	el     *charm.Elem
	stream *gpu.Stream
	bytes  int64
	step   int
}

// drive runs one GPU round of a task, then the next through a HAPI
// callback, until the phase's rounds are done.
func drive(ctx *charm.Ctx, arg unsafe.Pointer) {
	st := (*work)(arg)
	sys := st.run.sys
	if st.stream == nil || st.stream.Device() != sys.GPUFor(st.el) {
		// First run, or the element migrated: bind to the local GPU.
		st.stream = sys.GPUFor(st.el).NewStream("work", gpu.PriorityNormal)
	}
	if st.step == steps {
		st.step = 0
		st.run.phaseDone.Add(ctx.Engine())
		return
	}
	st.step++
	ctx.LaunchKernelBytes(st.stream, "stencil", st.bytes)
	ctx.HAPICallback(st.stream, "next", drive, arg)
}

func run(balance bool) sim.Time {
	s := &stencil{sys: core.NewSystem(nodes)}
	n := s.sys.RT.NumPEs() * odf

	entries := []charm.EntryFn{
		func(el *charm.Elem, ctx *charm.Ctx, m charm.Msg) { drive(ctx, unsafe.Pointer(el.State.(*work))) },
	}
	arr := s.sys.NewTaskArray("stencil", n, entries, func(ix charm.Index) any {
		// Hot corner: the first eighth of the tasks carry 8x the load.
		bytes := int64(8 << 20)
		if ix[0] < n/8 {
			bytes *= 8
		}
		return &work{run: s, bytes: bytes}
	})
	for _, el := range arr.Elems() {
		el.State.(*work).el = el
	}

	eng := s.sys.Engine()
	var runPhase func(p int)
	runPhase = func(p int) {
		if p == phases {
			return
		}
		s.phaseDone = sim.NewCounter(n)
		s.phaseDone.Done().OnFire(eng, func() {
			if balance {
				arr.RebalanceGreedy(8<<20).OnFire(eng, func() { runPhase(p + 1) })
			} else {
				runPhase(p + 1)
			}
		})
		arr.Broadcast(charm.Msg{Entry: 0})
	}
	runPhase(0)
	return s.sys.Run()
}

func main() {
	fmt.Printf("imbalanced stencil: %d tasks on %d GPUs, hot corner carries 8x load\n",
		nodes*6*odf, nodes*6)
	static := run(false)
	fmt.Printf("  static placement:      %v\n", static)
	balanced := run(true)
	fmt.Printf("  greedy load balancing: %v\n", balanced)
	fmt.Printf("  improvement: %.1f%%\n", 100*(float64(static)-float64(balanced))/float64(static))
}
