package jacobi

import (
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
// chares (Summit(1), ODF 4) measures about 3: the amortized growth of
// the run's arenas, whose transfer, pipe and signal records are
// bump-allocated in chunks of 256 and freed with the run. One closure,
// task or record per chare per iteration would add 24.
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
