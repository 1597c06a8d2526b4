package jacobi

import (
	"testing"

	"gat/internal/machine"
	"gat/internal/sim"
	"gat/internal/timeline"
)

// Integration tests: end-to-end invariants tying the app, runtime, GPU,
// and network models together with analytic expectations.

// analyticHaloBytes computes the exact bytes the halo exchange moves
// per iteration: each interior face is sent once in each direction.
func analyticHaloBytes(d Decomp) int64 {
	var total int64
	for f := 0; f < d.Count(); f++ {
		blk := d.BlockFlat(f)
		for _, nb := range blk.Neighbors() {
			total += blk.FaceBytes(nb.Face)
		}
	}
	return total
}

func TestCharmDNetworkBytesMatchAnalytic(t *testing.T) {
	cfg := Config{Global: [3]int{192, 192, 192}, Warmup: 1, Iters: 4}
	m := machine.MustNew(machine.Summit(2))
	res := RunCharm(m, cfg, CharmOpts{ODF: 1, GPUAware: true, Optimized: true})
	d := NewDecomp(cfg.Global, 12)
	perIter := analyticHaloBytes(d)
	iters := int64(cfg.Warmup + cfg.Iters)
	want := perIter * iters
	// GPU-aware Charm moves only halos (no runtime payload envelopes
	// beyond negligible headers).
	if res.NetBytes < want || res.NetBytes > want+want/10 {
		t.Fatalf("network bytes = %d, want ~%d (analytic halos)", res.NetBytes, want)
	}
}

func TestCharmDKernelCountMatchesFormula(t *testing.T) {
	cfg := Config{Global: [3]int{192, 192, 192}, Warmup: 1, Iters: 4}
	m := machine.MustNew(machine.Summit(1))
	res := RunCharm(m, cfg, CharmOpts{ODF: 1, GPUAware: true, Optimized: true})
	// Per chare-iteration under FusionNone: one pack and one unpack per
	// neighbor plus one update.
	d := NewDecomp(cfg.Global, 6)
	var perIter uint64
	for f := 0; f < d.Count(); f++ {
		perIter += uint64(2*len(d.BlockFlat(f).Neighbors()) + 1)
	}
	want := perIter * uint64(cfg.Warmup+cfg.Iters)
	if res.Kernels != want {
		t.Fatalf("kernels = %d, want %d", res.Kernels, want)
	}
}

func TestFusionCKernelCountIsOnePerIterPlusInitialPack(t *testing.T) {
	cfg := Config{Global: [3]int{192, 192, 192}, Warmup: 1, Iters: 4}
	m := machine.MustNew(machine.Summit(1))
	res := RunCharm(m, cfg, CharmOpts{ODF: 1, GPUAware: true, Fusion: FusionC, Optimized: true})
	chares := uint64(6)
	want := chares * uint64(cfg.Warmup+cfg.Iters+1) // +1 initial pack
	if res.Kernels != want {
		t.Fatalf("kernels = %d, want %d", res.Kernels, want)
	}
}

func TestMemoryPeakMatchesWorkingSet(t *testing.T) {
	cfg := Config{Global: [3]int{384, 384, 384}, Warmup: 1, Iters: 2}
	m := machine.MustNew(machine.Summit(1))
	RunCharm(m, cfg, CharmOpts{ODF: 2, GPUAware: true, Optimized: true})
	d := NewDecomp(cfg.Global, 12)
	// Each GPU hosts 2 chares; working set = sum over its chares of
	// 2*vol + 2*faces, all in ElemBytes.
	var want int64
	for f := 0; f < 2; f++ { // chares 0,1 on GPU 0 (block mapping)
		blk := d.BlockFlat(f)
		want += 2*blk.Volume()*ElemBytes + 2*blk.TotalFaceCells()*ElemBytes
	}
	if got := m.GPUOf(0).MemPeak(); got != want {
		t.Fatalf("GPU0 peak = %d, want %d", got, want)
	}
}

func TestOverlapFractionCharmBeatsMPI(t *testing.T) {
	cfg := Config{Global: [3]int{384, 384, 768}, Warmup: 1, Iters: 4}
	overlapOf := func(run func(m *machine.Machine)) float64 {
		m := machine.MustNew(machine.Summit(2))
		m.Eng.SetTracer(sim.NewTracer())
		run(m)
		return timeline.Analyze(m.Eng.Tracer(), m.Eng.Now()).OverlapFraction()
	}
	charm := overlapOf(func(m *machine.Machine) {
		RunCharm(m, cfg, CharmOpts{ODF: 4, Optimized: true})
	})
	mpi := overlapOf(func(m *machine.Machine) {
		RunMPI(m, cfg, MPIOpts{})
	})
	if charm <= mpi {
		t.Fatalf("overdecomposed tasks should hide more communication: charm=%.2f mpi=%.2f", charm, mpi)
	}
}

func TestResidualOptionAddsTimeMPI(t *testing.T) {
	cfg := Config{Global: [3]int{192, 192, 192}, Warmup: 1, Iters: 4}
	plain := RunMPI(machine.MustNew(machine.Summit(1)), cfg, MPIOpts{})
	withRes := RunMPI(machine.MustNew(machine.Summit(1)), cfg, MPIOpts{ResidualEvery: 1})
	if withRes.TimePerIter <= plain.TimePerIter {
		t.Fatalf("residual allreduce must cost time: %v vs %v", withRes.TimePerIter, plain.TimePerIter)
	}
}

func TestResidualOptionCharmAsyncCheaperThanMPIBlocking(t *testing.T) {
	cfg := Config{Global: [3]int{192, 192, 192}, Warmup: 1, Iters: 4}
	base := RunCharm(machine.MustNew(machine.Summit(1)), cfg, CharmOpts{ODF: 1, GPUAware: true, Optimized: true})
	withRes := RunCharm(machine.MustNew(machine.Summit(1)), cfg,
		CharmOpts{ODF: 1, GPUAware: true, ResidualEvery: 1, Optimized: true})
	// Asynchronous contributions must not cost anywhere near a blocking
	// allreduce; allow a modest slowdown.
	if float64(withRes.TimePerIter) > 1.25*float64(base.TimePerIter) {
		t.Fatalf("async residual too expensive: %v vs %v", withRes.TimePerIter, base.TimePerIter)
	}
}

func TestFlatPriorityHurtsOrEqual(t *testing.T) {
	cfg := Config{Global: [3]int{384, 384, 768}, Warmup: 1, Iters: 4}
	prio := RunCharm(machine.MustNew(machine.Summit(2)), cfg, CharmOpts{ODF: 4, GPUAware: true, Optimized: true})
	flat := RunCharm(machine.MustNew(machine.Summit(2)), cfg,
		CharmOpts{ODF: 4, GPUAware: true, FlatPriority: true, Optimized: true})
	if flat.TimePerIter < prio.TimePerIter {
		t.Fatalf("flat priorities (%v) should not beat priority streams (%v)",
			flat.TimePerIter, prio.TimePerIter)
	}
}

func TestJitterMakesRunsVaryButSeedsReproduce(t *testing.T) {
	cfg := Config{Global: [3]int{192, 192, 192}, Warmup: 1, Iters: 4}
	run := func(seed uint64) sim.Time {
		mc := machine.Summit(2)
		mc.Net.JitterFrac = 0.2
		mc.Net.JitterSeed = seed
		return RunMPI(machine.MustNew(mc), cfg, MPIOpts{Device: true}).TimePerIter
	}
	a1, a2, b := run(1), run(1), run(2)
	if a1 != a2 {
		t.Fatalf("same seed diverged: %v vs %v", a1, a2)
	}
	if a1 == b {
		t.Fatal("different seeds produced identical times — jitter inert")
	}
}
