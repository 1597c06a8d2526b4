package jacobi

import (
	"math"
	"runtime"
	"testing"

	"gat/internal/machine"
)

// charmAllocsPerIter returns the marginal heap allocations of one
// Jacobi3D iteration under opt: the allocations of a run of 2n timed
// iterations minus those of a run of n, over n. Machine construction,
// chare set-up and warm-up cancel out, leaving the per-iteration path.
func charmAllocsPerIter(opt CharmOpts, n int) float64 {
	run := func(iters int) float64 {
		return testing.AllocsPerRun(2, func() {
			m := machine.MustNew(machine.Summit(1))
			RunCharm(m, Config{Global: [3]int{96, 96, 96}, Warmup: 1, Iters: iters}, opt)
		})
	}
	return (run(2*n) - run(n)) / float64(n)
}

// maxAllocsPerIter bounds TestCharmIterationAllocs. An iteration of 24
// chares (Summit(1), ODF 4) measures 0.5 to 2: the amortized growth of
// the run's arenas, chiefly the engine signals handed to callers (Ctx
// results, send completions) and, in host-staged mode, the staging
// records, bump-allocated in chunks of 256 and freed with the run.
// Transfer, pipe and GPUDirect gate records are recycled as their
// messages arrive. One closure, task or record per chare per iteration
// would add 24.
const maxAllocsPerIter = 8

// TestCharmIterationAllocs pins the allocation-free Charm task path:
// once a run is set up, an iteration must allocate next to nothing, in
// GPU-aware mode with and without graphs and in host-staged mode with
// and without the §III-C optimizations.
func TestCharmIterationAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a dozen simulations")
	}
	cases := []struct {
		name string
		opt  CharmOpts
	}{
		{"charm-d", CharmOpts{ODF: 4, GPUAware: true}.Optimized()},
		{"charm-d-graphs", CharmOpts{ODF: 4, GPUAware: true, Graphs: true, Fusion: FusionC}.Optimized()},
		{"charm-h", CharmOpts{ODF: 4}.Optimized()},
		{"charm-h-before", CharmOpts{ODF: 4}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := charmAllocsPerIter(c.opt, 32)
			t.Logf("%s: %.2f allocs/iteration", c.name, got)
			if got > maxAllocsPerIter {
				t.Fatalf("%s allocates %.1f times per iteration (marginal), want <= %d", c.name, got, maxAllocsPerIter)
			}
		})
	}
}

// TestCharmChannelsDrain checks that a multi-iteration Charm-D run
// leaves every channel empty: all sends and receives matched, and no
// match key left behind in either map (a drained key used to stay, so
// each channel gained an entry per iteration).
func TestCharmChannelsDrain(t *testing.T) {
	m := machine.MustNew(machine.Summit(1))
	drv := newCharmDriver(m, Config{Global: [3]int{96, 96, 96}, Warmup: 1, Iters: 8}, CharmOpts{ODF: 4, GPUAware: true}.Optimized())
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

// bytesPerIter returns the marginal heap bytes of one Jacobi3D
// iteration of run, measured like charmAllocsPerIter: the TotalAlloc of
// a run of 2n timed iterations minus that of a run of n, over n. It
// takes the minimum of a few tries, since the collector's own
// allocations can land in either run.
func bytesPerIter(run func(iters int), n int) float64 {
	measure := func(iters int) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(iters)
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	best := math.Inf(1)
	for try := 0; try < 3; try++ {
		best = math.Min(best, (measure(2*n)-measure(n))/float64(n))
	}
	return best
}

// TestIterationBytes bounds the heap bytes an iteration allocates once
// a run is set up. Transfer, pipe, GPUDirect gate and MPI match records
// are recycled as their messages arrive, so what an iteration still
// allocates is records handed to callers, which live until the run
// ends: engine signals and AllOf joins in Charm-D (Ctx results, send
// completions), kernel stream ops and requests in MPI-D.
func TestIterationBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a dozen simulations")
	}
	cfg := func(iters int) Config { return Config{Global: [3]int{96, 96, 96}, Warmup: 1, Iters: iters} }
	charm := func(opt CharmOpts) func(int) {
		return func(iters int) { RunCharm(machine.MustNew(machine.Summit(1)), cfg(iters), opt) }
	}
	cases := []struct {
		name string
		run  func(int)
		max  float64
	}{
		{"charm-d", charm(CharmOpts{ODF: 4, GPUAware: true}.Optimized()), 32 << 10},
		{"charm-d-graphs", charm(CharmOpts{ODF: 4, GPUAware: true, Graphs: true, Fusion: FusionC}.Optimized()), 16 << 10},
		{"mpi-d", func(iters int) { RunMPI(machine.MustNew(machine.Summit(2)), cfg(iters), MPIOpts{Device: true}) }, 28 << 10},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := bytesPerIter(c.run, 32)
			t.Logf("%s: %.0f bytes/iteration", c.name, got)
			if got > c.max {
				t.Fatalf("%s allocates %.0f bytes per iteration (marginal), want <= %.0f", c.name, got, c.max)
			}
		})
	}
}
