package jacobi

import (
	"testing"

	"gat/internal/machine"
	"gat/internal/sim"
)

// smallCfg is a quick configuration for variant tests.
func smallCfg() Config {
	return Config{Global: [3]int{192, 192, 192}, Warmup: 1, Iters: 4}
}

func largeCfg() Config {
	return Config{Global: [3]int{1536, 1536, 1536}, Warmup: 1, Iters: 3}
}

func TestMPIHostRuns(t *testing.T) {
	m := machine.MustNew(machine.Summit(1))
	res := RunMPI(m, smallCfg(), MPIOpts{})
	if res.TimePerIter <= 0 {
		t.Fatalf("bad result: %v", res)
	}
	if res.Kernels == 0 || res.NetMsgs == 0 {
		t.Fatalf("no GPU/network activity: %v", res)
	}
}

func TestMPIDeviceRuns(t *testing.T) {
	m := machine.MustNew(machine.Summit(1))
	res := RunMPI(m, smallCfg(), MPIOpts{Device: true})
	if res.TimePerIter <= 0 {
		t.Fatalf("bad result: %v", res)
	}
}

func TestCharmHostRuns(t *testing.T) {
	m := machine.MustNew(machine.Summit(1))
	res := RunCharm(m, smallCfg(), CharmOpts{ODF: 1, Optimized: true})
	if res.TimePerIter <= 0 {
		t.Fatalf("bad result: %v", res)
	}
}

func TestCharmDeviceRuns(t *testing.T) {
	m := machine.MustNew(machine.Summit(1))
	res := RunCharm(m, smallCfg(), CharmOpts{ODF: 2, GPUAware: true, Optimized: true})
	if res.TimePerIter <= 0 {
		t.Fatalf("bad result: %v", res)
	}
}

func TestCharmODFRunsAllVariants(t *testing.T) {
	for _, odf := range []int{1, 2, 4} {
		for _, aware := range []bool{false, true} {
			m := machine.MustNew(machine.Summit(1))
			res := RunCharm(m, smallCfg(), CharmOpts{ODF: odf, GPUAware: aware, Optimized: true})
			if res.TimePerIter <= 0 {
				t.Fatalf("odf=%d aware=%v: bad result %v", odf, aware, res)
			}
		}
	}
}

func TestDeviceAwareSmallBeatsHostStagingMPI(t *testing.T) {
	// Small halos go GPUDirect: MPI-D must beat MPI-H (Fig 7b).
	cfg := smallCfg()
	mH := machine.MustNew(machine.Summit(2))
	mD := machine.MustNew(machine.Summit(2))
	h := RunMPI(mH, cfg, MPIOpts{})
	d := RunMPI(mD, cfg, MPIOpts{Device: true})
	if d.TimePerIter >= h.TimePerIter {
		t.Fatalf("MPI-D (%v) should beat MPI-H (%v) on small halos", d.TimePerIter, h.TimePerIter)
	}
}

func TestCharmDBeatsCharmHSmall(t *testing.T) {
	cfg := smallCfg()
	mH := machine.MustNew(machine.Summit(2))
	mD := machine.MustNew(machine.Summit(2))
	h := RunCharm(mH, cfg, CharmOpts{ODF: 1, Optimized: true})
	d := RunCharm(mD, cfg, CharmOpts{ODF: 1, GPUAware: true, Optimized: true})
	if d.TimePerIter >= h.TimePerIter {
		t.Fatalf("Charm-D (%v) should beat Charm-H (%v) on small halos", d.TimePerIter, h.TimePerIter)
	}
}

func TestAfterOptimizationsBeatBefore(t *testing.T) {
	// Fig 6: removing the redundant sync and splitting transfer streams
	// must improve Charm-H.
	cfg := smallCfg()
	mB := machine.MustNew(machine.Summit(1))
	mA := machine.MustNew(machine.Summit(1))
	before := RunCharm(mB, cfg, CharmOpts{ODF: 4})
	after := RunCharm(mA, cfg, CharmOpts{ODF: 4, Optimized: true})
	if after.TimePerIter >= before.TimePerIter {
		t.Fatalf("after (%v) should beat before (%v)", after.TimePerIter, before.TimePerIter)
	}
}

func TestFusionReducesKernelCount(t *testing.T) {
	cfg := smallCfg()
	counts := map[Fusion]uint64{}
	for _, f := range []Fusion{FusionNone, FusionA, FusionB, FusionC} {
		m := machine.MustNew(machine.Summit(1))
		res := RunCharm(m, cfg, CharmOpts{ODF: 1, GPUAware: true, Fusion: f, Optimized: true})
		counts[f] = res.Kernels
	}
	if !(counts[FusionC] < counts[FusionB] && counts[FusionB] < counts[FusionA] && counts[FusionA] < counts[FusionNone]) {
		t.Fatalf("kernel counts should strictly decrease with fusion aggressiveness: %v", counts)
	}
}

func TestGraphsReduceHostLaunchWork(t *testing.T) {
	// CUDA graphs replace per-kernel launches with one graph launch;
	// total PE busy time must drop at high ODF.
	cfg := smallCfg()
	run := func(graphs bool) sim.Time {
		m := machine.MustNew(machine.Summit(1))
		RunCharm(m, cfg, CharmOpts{ODF: 8, GPUAware: true, Graphs: graphs, Optimized: true})
		return m.Eng.Now()
	}
	plain := run(false)
	graphed := run(true)
	if graphed >= plain {
		t.Fatalf("graphs (%v) should beat plain launches (%v) at ODF-8", graphed, plain)
	}
}

func TestWeakScalingLargeProblemGPUDirectProtocolChange(t *testing.T) {
	// 9 MB halos: MPI-D falls back to pipelined host staging across
	// nodes, erasing most of its advantage over MPI-H (Fig 7a).
	cfg := largeCfg()
	mH := machine.MustNew(machine.Summit(2))
	mD := machine.MustNew(machine.Summit(2))
	h := RunMPI(mH, cfg, MPIOpts{})
	d := RunMPI(mD, cfg, MPIOpts{Device: true})
	ratio := float64(h.TimePerIter) / float64(d.TimePerIter)
	if ratio > 1.35 {
		t.Fatalf("MPI-D should NOT be much faster than MPI-H for 9MB halos (ratio %.2f)", ratio)
	}
	if ratio < 0.7 {
		t.Fatalf("MPI-D should not be much slower than MPI-H either (ratio %.2f)", ratio)
	}
}

func TestOverlapFlagHelpsMPI(t *testing.T) {
	cfg := largeCfg()
	mOff := machine.MustNew(machine.Summit(2))
	mOn := machine.MustNew(machine.Summit(2))
	off := RunMPI(mOff, cfg, MPIOpts{})
	on := RunMPI(mOn, cfg, MPIOpts{Overlap: true})
	if on.TimePerIter >= off.TimePerIter {
		t.Fatalf("manual overlap (%v) should beat no overlap (%v)", on.TimePerIter, off.TimePerIter)
	}
}

func TestDeterministicResults(t *testing.T) {
	cfg := smallCfg()
	run := func() machine.Metrics {
		m := machine.MustNew(machine.Summit(1))
		return RunCharm(m, cfg, CharmOpts{ODF: 2, GPUAware: true, Optimized: true})
	}
	a, b := run(), run()
	if a.TimePerIter != b.TimePerIter || a.Events != b.Events {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}

func TestFusionRequiresGPUAware(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("fusion without GPU-aware communication did not panic")
		}
	}()
	m := machine.MustNew(machine.Summit(1))
	RunCharm(m, smallCfg(), CharmOpts{ODF: 1, Fusion: FusionC, Optimized: true})
}
