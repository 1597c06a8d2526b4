package jacobi

import (
	"testing"

	"gat/internal/machine"
	"gat/internal/sim"
)

// boundCfg is the run the bound tests stop: fig7b's 192^3 per node, two
// warm-up and three timed iterations, so TimePerIter rounds down.
func boundCfg(nodes int) Config {
	return Config{Global: WeakGlobal([3]int{192, 192, 192}, nodes), Warmup: 2, Iters: 3}
}

// checkCharmBound runs opt on nodes Summit nodes to completion, then
// again bounded at the full TimePerIter T plus off (at least 1 ns). It
// fails unless the bounded run stopped exactly when T ≥ the bound, an
// unstopped one returned the full run's metrics in every field, and a
// stopped one returned none.
func checkCharmBound(t *testing.T, nodes int, opt CharmOpts, off sim.Time) {
	t.Helper()
	cfg := boundCfg(nodes)
	full := RunCharm(machine.MustNew(machine.Summit(nodes)), cfg, opt)
	bound := max(full.TimePerIter+off, 1)
	r, ok := RunCharmBounded(machine.MustNew(machine.Summit(nodes)), cfg, opt, bound)
	switch {
	case ok != (full.TimePerIter < bound):
		t.Fatalf("%d nodes %+v: TimePerIter %d ns, bound %d ns: finished = %v, want %v",
			nodes, opt, full.TimePerIter, bound, ok, full.TimePerIter < bound)
	case ok && r != full:
		t.Fatalf("%d nodes %+v, bound %d ns: bounded metrics %+v, want the full run's %+v", nodes, opt, bound, r, full)
	case !ok && r != (machine.Metrics{}):
		t.Fatalf("%d nodes %+v, bound %d ns: a stopped run returned metrics %+v", nodes, opt, bound, r)
	}
}

// TestCharmBoundStopsExactly: over Charm-H and Charm-D at 1 and 2 nodes
// and ODF 1–4, and bounds just below, at and above the full
// TimePerIter, a bounded run stops exactly when it cannot beat its
// bound, and otherwise returns the unbounded run's metrics, event count
// included. The before-optimization, fused and graph variants stop the
// same way.
func TestCharmBoundStopsExactly(t *testing.T) {
	offs := []sim.Time{-1 << 40, -20_000, -1, 0, 1, 20_000}
	for _, nodes := range []int{1, 2} {
		for odf := 1; odf <= 4; odf++ {
			for _, gpuAware := range []bool{false, true} {
				for _, off := range offs {
					checkCharmBound(t, nodes, CharmOpts{ODF: odf, GPUAware: gpuAware, Optimized: true}, off)
				}
			}
		}
	}
	for _, opt := range []CharmOpts{
		{ODF: 2, ResidualEvery: 1},
		{ODF: 2, GPUAware: true, Fusion: FusionB, Optimized: true},
		{ODF: 2, GPUAware: true, Fusion: FusionC, Graphs: true, Optimized: true},
	} {
		for _, off := range offs {
			checkCharmBound(t, 2, opt, off)
		}
	}
}

// FuzzCharmBound is the stop property over random variants, node
// counts (1–2), ODFs (1–4) and bound offsets (up to ±32 µs around the
// full TimePerIter, which is 100–250 µs here).
func FuzzCharmBound(f *testing.F) {
	f.Add(false, uint8(0), uint8(0), int16(0))
	f.Add(true, uint8(1), uint8(3), int16(1))
	f.Add(true, uint8(0), uint8(1), int16(-1))
	f.Add(false, uint8(1), uint8(2), int16(-5000))
	f.Fuzz(func(t *testing.T, gpuAware bool, nodes, odf uint8, off int16) {
		checkCharmBound(t, 1+int(nodes)%2, CharmOpts{ODF: 1 + int(odf)%4, GPUAware: gpuAware, Optimized: true}, sim.Time(off))
	})
}
