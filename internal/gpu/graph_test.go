package gpu

import (
	"testing"

	"gat/internal/sim"
)

func TestGraphLinearChain(t *testing.T) {
	e, d := newTestDevice()
	s := d.NewStream("s", PriorityNormal)
	g := NewGraph()
	a := g.AddKernel("a", 100)
	b := g.AddKernel("b", 50, a)
	g.AddKernel("c", 25, b)
	var at sim.Time
	s.Launch(g).OnFire(e, func() { at = e.Now() })
	e.Run()
	// Each node: dispatch 1 + dur. 101 + 51 + 26 = 178.
	if at != 178 {
		t.Fatalf("graph done at %v, want 178", at)
	}
}

func TestGraphDiamondDependency(t *testing.T) {
	e, d := newTestDevice()
	s := d.NewStream("s", PriorityNormal)
	g := NewGraph()
	root := g.AddKernel("root", 10)
	l := g.AddKernel("left", 20, root)
	r := g.AddKernel("right", 30, root)
	g.AddKernel("join", 5, l, r)
	var at sim.Time
	s.Launch(g).OnFire(e, func() { at = e.Now() })
	e.Run()
	// Each node pays dispatch 1 on the serial compute engine. root
	// 0..11 releases both branches: left 11..32, right 32..63. join
	// waits for the later of the two: 63..69.
	if at != 69 {
		t.Fatalf("diamond graph done at %v, want 69", at)
	}
}

func TestGraphNodeDispatchCheaperThanKernel(t *testing.T) {
	e, d := newTestDevice()
	// 5-kernel chain as separate launches vs as a graph: the graph saves
	// (KernelDispatch - GraphNodeDispatch) per node on the device.
	s1 := d.NewStream("s1", PriorityNormal)
	var plainAt sim.Time
	for i := 0; i < 5; i++ {
		sig := s1.Kernel("k", 10)
		if i == 4 {
			sig.OnFire(e, func() { plainAt = e.Now() })
		}
	}
	e.Run()

	e2, d2 := newTestDevice()
	s2 := d2.NewStream("s2", PriorityNormal)
	g := NewGraph()
	var prev *GraphNode
	for i := 0; i < 5; i++ {
		if prev == nil {
			prev = g.AddKernel("k", 10)
		} else {
			prev = g.AddKernel("k", 10, prev)
		}
	}
	var graphAt sim.Time
	s2.Launch(g).OnFire(e2, func() { graphAt = e2.Now() })
	e2.Run()

	if plainAt != 60 { // 5 * (2+10)
		t.Fatalf("plain chain done at %v, want 60", plainAt)
	}
	if graphAt != 55 { // 5 * (1+10)
		t.Fatalf("graph chain done at %v, want 55", graphAt)
	}
}

func TestGraphRepeatedLaunch(t *testing.T) {
	e, d := newTestDevice()
	s := d.NewStream("s", PriorityNormal)
	g := NewGraph()
	g.AddKernel("k", 10)
	var times []sim.Time
	for i := 0; i < 3; i++ {
		s.Launch(g).OnFire(e, func() { times = append(times, e.Now()) })
	}
	e.Run()
	want := []sim.Time{11, 22, 33}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("launch %d done at %v, want %v", i, times[i], want[i])
		}
	}
}

func TestEmptyGraphLaunch(t *testing.T) {
	_, d := newTestDevice()
	s := d.NewStream("s", PriorityNormal)
	if !s.Launch(NewGraph()).Fired() {
		t.Fatal("empty graph launch should complete immediately")
	}
}

func TestGraphBlocksStream(t *testing.T) {
	// Work enqueued on the stream after a graph must wait for the whole
	// graph to finish.
	e, d := newTestDevice()
	s := d.NewStream("s", PriorityNormal)
	g := NewGraph()
	g.AddKernel("a", 100)
	s.Launch(g)
	var at sim.Time
	s.Kernel("after", 10).OnFire(e, func() { at = e.Now() })
	e.Run()
	if at != 113 { // graph 101, then 2+10
		t.Fatalf("post-graph kernel done at %v, want 113", at)
	}
}

func TestGraphParallelRootsShareComputeEngine(t *testing.T) {
	e, d := newTestDevice()
	s := d.NewStream("s", PriorityNormal)
	g := NewGraph()
	g.AddKernel("a", 10)
	g.AddKernel("b", 10)
	var at sim.Time
	s.Launch(g).OnFire(e, func() { at = e.Now() })
	e.Run()
	if at != 22 { // serialized on compute: (1+10)*2
		t.Fatalf("parallel-root graph done at %v, want 22", at)
	}
}

func TestV100ConfigSanity(t *testing.T) {
	cfg := V100()
	if cfg.MemBandwidth <= 0 || cfg.CopyBandwidth <= 0 {
		t.Fatal("V100 bandwidths must be positive")
	}
	if cfg.GraphNodeDispatch >= cfg.KernelDispatch {
		t.Fatal("graph node dispatch should be cheaper than kernel dispatch")
	}
	if cfg.GraphLaunchHost >= 3*cfg.KernelLaunchHost {
		t.Fatal("one graph launch should cost less than a few kernel launches")
	}
	e := sim.NewEngine()
	d := New(e, "v100", cfg)
	// 603M-cell block (1536^3/6) at 24 B/cell should take ~15-25 ms.
	cells := int64(1536) * 1536 * 1536 / 6
	dur := d.KernelTime(cells * 24)
	if dur < 10*sim.Millisecond || dur > 40*sim.Millisecond {
		t.Fatalf("V100 Jacobi update time %v out of plausible range", dur)
	}
}
