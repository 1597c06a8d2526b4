package jacobi

import (
	"math"
	"runtime"
	"testing"

	"gat/internal/machine"
	"gat/internal/sim"
)

// perIter returns the marginal growth of a MemStats counter over one
// Jacobi3D iteration of run once a run is set up: the growth over a run
// of 2n timed iterations minus that over a run of n, over n. Each run
// gets a fresh Summit machine of the given size, built outside the
// measured span, so machine construction, chare set-up and warm-up
// cancel out. Each length takes the fewest of a few tries: what else
// allocates — the collector, and sync.Pool refills, which the race
// detector randomizes — only ever adds.
func perIter(nodes int, run func(m *machine.Machine, iters int), n int, counter func(*runtime.MemStats) uint64) float64 {
	measure := func(iters int) float64 {
		var before, after runtime.MemStats
		best := uint64(math.MaxUint64)
		for try := 0; try < 3; try++ {
			m := machine.MustNew(machine.Summit(nodes))
			runtime.ReadMemStats(&before)
			run(m, iters)
			runtime.ReadMemStats(&after)
			best = min(best, counter(&after)-counter(&before))
		}
		return float64(best)
	}
	return (measure(2*n) - measure(n)) / float64(n)
}

// iterConfig is the 96³ grid of the per-iteration tests.
func iterConfig(iters int) Config { return Config{Global: [3]int{96, 96, 96}, Warmup: 1, Iters: iters} }

// runCharm returns a perIter run of RunCharm under opt.
func runCharm(opt CharmOpts) func(*machine.Machine, int) {
	return func(m *machine.Machine, iters int) { RunCharm(m, iterConfig(iters), opt) }
}

// runMPI returns a perIter run of RunMPI under opts.
func runMPI(opts MPIOpts) func(*machine.Machine, int) {
	return func(m *machine.Machine, iters int) { RunMPI(m, iterConfig(iters), opts) }
}

func mallocs(ms *runtime.MemStats) uint64    { return ms.Mallocs }
func allocBytes(ms *runtime.MemStats) uint64 { return ms.TotalAlloc }

// maxAllocsPerIter bounds the per-iteration allocation tests. An
// iteration of 24 chares (Summit(1), ODF 4) or of 12 MPI ranks
// (Summit(2)) measures 0 on Go 1.24 (-0.06 to 0.06 under the race
// detector): the records an iteration uses, signals and MPI requests
// included, return to free lists as their operations complete, so the
// run reuses them. The bound leaves room for the odd runtime allocation
// landing in one run of a pair; one closure, task or record per
// iteration would add 1, one per chare or rank 12 or more.
const maxAllocsPerIter = 0.25

// iterAllocCase is one run of the per-iteration allocation tests.
type iterAllocCase struct {
	name  string
	nodes int
	run   func(*machine.Machine, int)
}

// checkIterationAllocs fails if an iteration of any case allocates more
// than maxAllocsPerIter times once its run is set up.
func checkIterationAllocs(t *testing.T, cases []iterAllocCase) {
	if !sim.Recycles {
		t.Skip("the gatcheck build allocates every record afresh")
	}
	if testing.Short() {
		t.Skip("runs a dozen simulations")
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := perIter(c.nodes, c.run, 32, mallocs)
			t.Logf("%s: %.2f allocs/iteration", c.name, got)
			if got > maxAllocsPerIter {
				t.Fatalf("%s allocates %.2f times per iteration (marginal), want <= %.2f", c.name, got, maxAllocsPerIter)
			}
		})
	}
}

// TestCharmIterationAllocs pins the allocation-free Charm task path:
// once a run is set up, an iteration must allocate next to nothing, in
// GPU-aware mode with and without graphs and in host-staged mode with
// and without the §III-C optimizations.
func TestCharmIterationAllocs(t *testing.T) {
	checkIterationAllocs(t, []iterAllocCase{
		{"charm-d", 1, runCharm(CharmOpts{ODF: 4, GPUAware: true, Optimized: true})},
		{"charm-d-graphs", 1, runCharm(CharmOpts{ODF: 4, GPUAware: true, Graphs: true, Fusion: FusionC, Optimized: true})},
		{"charm-h", 1, runCharm(CharmOpts{ODF: 4, Optimized: true})},
		{"charm-h-before", 1, runCharm(CharmOpts{ODF: 4})},
	})
}

// TestMPIIterationAllocs pins the allocation-free MPI path: requests
// and every record below them recycle as they complete, so an iteration
// of either transfer policy, with manual overlap or a residual
// allreduce, allocates next to nothing once the ranks are spawned.
func TestMPIIterationAllocs(t *testing.T) {
	checkIterationAllocs(t, []iterAllocCase{
		{"mpi-d", 2, runMPI(MPIOpts{Device: true})},
		{"mpi-h", 2, runMPI(MPIOpts{})},
		{"mpi-h-overlap", 2, runMPI(MPIOpts{Overlap: true})},
		{"mpi-d-residual", 2, runMPI(MPIOpts{Device: true, ResidualEvery: 1})},
	})
}

// TestCharmChannelsDrain checks that a multi-iteration Charm-D run
// leaves every channel empty: all sends and receives matched, and no
// match key left behind in either map (a drained key used to stay, so
// each channel gained an entry per iteration).
func TestCharmChannelsDrain(t *testing.T) {
	m := machine.MustNew(machine.Summit(1))
	drv := newCharmDriver(m, Config{Global: [3]int{96, 96, 96}, Warmup: 1, Iters: 8}, CharmOpts{ODF: 4, GPUAware: true, Optimized: true})
	drv.run()
	channels := 0
	for _, el := range drv.arr.Elems() {
		for face, ch := range state(el).channels {
			if ch == nil {
				continue
			}
			channels++
			if ch.PendingSends() != 0 || ch.PendingRecvs() != 0 || ch.MatchKeys() != 0 {
				t.Fatalf("chare %d face %d: %d pending sends, %d pending recvs, %d match keys after the run, want 0",
					el.Flat, face, ch.PendingSends(), ch.PendingRecvs(), ch.MatchKeys())
			}
			if ch.Completed() == 0 {
				t.Fatalf("chare %d face %d: channel carried no messages", el.Flat, face)
			}
		}
	}
	if channels == 0 {
		t.Fatal("run built no channels")
	}
}

// TestIterationBytes bounds the heap bytes an iteration allocates once
// a run is set up. Every record an iteration uses returns to a free
// list as its operation completes — engine signals, MPI requests among
// them, AllOf joins, GPU stream ops, transfer, pipe and match records —
// so every variant measures 0 on Go 1.24 (0 to 7 B under the race
// detector), and the bound is a noise floor below one record per chare
// or rank.
func TestIterationBytes(t *testing.T) {
	if !sim.Recycles {
		t.Skip("the gatcheck build allocates every record afresh")
	}
	if testing.Short() {
		t.Skip("runs a dozen simulations")
	}
	cases := []struct {
		name  string
		nodes int
		run   func(*machine.Machine, int)
		max   float64
	}{
		{"charm-d", 1, runCharm(CharmOpts{ODF: 4, GPUAware: true, Optimized: true}), 512},
		{"charm-d-graphs", 1, runCharm(CharmOpts{ODF: 4, GPUAware: true, Graphs: true, Fusion: FusionC, Optimized: true}), 512},
		{"charm-h", 1, runCharm(CharmOpts{ODF: 4, Optimized: true}), 512},
		{"mpi-d", 2, runMPI(MPIOpts{Device: true}), 512},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := perIter(c.nodes, c.run, 32, allocBytes)
			t.Logf("%s: %.0f bytes/iteration", c.name, got)
			if got > c.max {
				t.Fatalf("%s allocates %.0f bytes per iteration (marginal), want <= %.0f", c.name, got, c.max)
			}
		})
	}
}
