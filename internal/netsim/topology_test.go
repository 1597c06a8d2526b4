package netsim

import (
	"strings"
	"testing"

	"gat/internal/sim"
)

func TestTopologyByName(t *testing.T) {
	for _, name := range []string{"", TopoFatTree, TopoDragonfly, TopoTorus, TopoSlimFly} {
		topo, err := TopologyByName(name, 4, 16)
		if err != nil {
			t.Fatalf("TopologyByName(%q): %v", name, err)
		}
		if name != "" && topo.Name() != name {
			t.Fatalf("TopologyByName(%q).Name() = %q", name, topo.Name())
		}
	}
	if topo, _ := TopologyByName("", 4, 16); topo.Name() != TopoFatTree {
		t.Fatalf("empty topology name should default to %s, got %s", TopoFatTree, topo.Name())
	}
	if _, err := TopologyByName("hypercube", 4, 16); err == nil || !strings.Contains(err.Error(), "hypercube") {
		t.Fatalf("unknown topology should error naming it, got %v", err)
	}
	if _, err := TopologyByName(TopoFatTree, 0, 16); err == nil {
		t.Fatal("zero group size should error")
	}
}

func TestDragonflyHops(t *testing.T) {
	cfg := testConfig() // pod size 2
	cfg.Topology = TopoDragonfly
	e := sim.NewEngine()
	n := New(e, cfg, 8)
	if h := n.Topology().Hops(3, 3); h != 0 {
		t.Fatalf("same-node hops = %d, want 0", h)
	}
	if h := n.Topology().Hops(0, 1); h != 2 {
		t.Fatalf("same-group hops = %d, want 2", h)
	}
	// Dragonfly minimal route: one global-link traversal, 3 switch
	// hops — shorter than the fat tree's 4.
	if h := n.Topology().Hops(0, 5); h != 3 {
		t.Fatalf("cross-group hops = %d, want 3", h)
	}
	ft := New(sim.NewEngine(), testConfig(), 8)
	if n.Latency(0, 5) >= ft.Latency(0, 5) {
		t.Fatalf("dragonfly cross-group latency (%v) should undercut the fat tree (%v)",
			n.Latency(0, 5), ft.Latency(0, 5))
	}
}

func TestUnknownTopologyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown Config.Topology did not panic in New")
		}
	}()
	New(sim.NewEngine(), Config{InjectionBW: 1e9, IntraNodeBW: 1e9, Topology: "hypercube"}, 2)
}

func TestDragonflyFabricCongests(t *testing.T) {
	// The tapered-contention effect must survive the topology swap:
	// two flows from one dragonfly group share its global links.
	run := func(taper float64) sim.Time {
		cfg := testConfig()
		cfg.Topology = TopoDragonfly
		e := sim.NewEngine()
		n := New(e, cfg, 4)
		n.EnableFabric(FabricConfig{Taper: taper})
		var last sim.Time
		for _, src := range []int{0, 1} {
			n.Transfer(src, 2+src%2, 1000, sim.FiredSignal()).OnFire(e, func() { last = e.Now() })
		}
		e.Run()
		return last
	}
	if full, tapered := run(1), run(4); tapered <= full {
		t.Fatalf("tapered dragonfly (%v) should be slower than full provisioning (%v)", tapered, full)
	}
}

func TestDragonflyFabricLinkNames(t *testing.T) {
	cfg := testConfig()
	cfg.Topology = TopoDragonfly
	e := sim.NewEngine()
	n := New(e, cfg, 4)
	f := n.EnableFabric(FabricConfig{Taper: 1})
	for name := range f.Utilizations() {
		if !strings.HasPrefix(name, "grp") {
			t.Fatalf("dragonfly fabric link named %q, want grp* prefix", name)
		}
	}
}

func TestFabricTaperDerivesUplinkBW(t *testing.T) {
	// Taper 2 over 1 link: the group's aggregate injection (2 nodes x
	// 1e9) halved.
	e := sim.NewEngine()
	n := New(e, testConfig(), 4)
	f := n.EnableFabric(FabricConfig{Taper: 2})
	if got := f.Config().UplinkBW; got != 1e9 {
		t.Fatalf("derived uplink BW = %g, want 1e9 (2 nodes * 1e9 / taper 2)", got)
	}
	// Explicit UplinkBW wins over Taper.
	e2 := sim.NewEngine()
	n2 := New(e2, testConfig(), 4)
	if got := n2.EnableFabric(FabricConfig{UplinkBW: 3e9, Taper: 2}).Config().UplinkBW; got != 3e9 {
		t.Fatalf("explicit uplink BW overridden: got %g, want 3e9", got)
	}
}

func TestEnableFabricOddNodeCount(t *testing.T) {
	// 5 nodes at pod size 2: the trailing partial pod must still get
	// links and route traffic.
	e := sim.NewEngine()
	n := New(e, testConfig(), 5)
	f := n.EnableFabric(fabricConfig())
	if got := len(f.up); got != 3 {
		t.Fatalf("5 nodes / pod size 2 built %d pods, want 3", got)
	}
	var at sim.Time
	n.Transfer(0, 4, 500, sim.FiredSignal()).OnFire(e, func() { at = e.Now() })
	e.Run()
	if at == 0 {
		t.Fatal("transfer to the partial pod never arrived")
	}
	if max, _ := n.LinkUtilization(); max <= 0 {
		t.Fatal("partial-pod transfer left no fabric utilization")
	}
}

func TestFabricFlowHashingSpreadsLinks(t *testing.T) {
	// With 4 parallel uplinks and many distinct (src, dst) flows, the
	// hash must actually use more than one link per group — on every
	// topology's link set, since each builds its own claim sequence.
	for _, topo := range []string{TopoFatTree, TopoDragonfly, TopoTorus, TopoSlimFly} {
		t.Run(topo, func(t *testing.T) {
			e := sim.NewEngine()
			cfg := testConfig()
			cfg.PodSize = 8
			cfg.Topology = topo
			n := New(e, cfg, 16)
			fc := fabricConfig()
			fc.UplinksPerPod = 4
			f := n.EnableFabric(fc)
			for src := 0; src < 8; src++ {
				n.Transfer(src, 8+src, 100, sim.FiredSignal())
			}
			e.Run()
			busy := map[string]bool{}
			for name, u := range f.Utilizations() {
				if u > 0 && strings.Contains(name, "/up") {
					busy[name] = true
				}
			}
			if len(busy) < 2 {
				t.Fatalf("%s: 8 distinct flows used %d of 4 uplinks; hashing does not spread", topo, len(busy))
			}
		})
	}
}

func TestEnableFabricAfterTrafficPanics(t *testing.T) {
	e := sim.NewEngine()
	n := New(e, testConfig(), 4)
	n.Transfer(0, 2, 100, sim.FiredSignal())
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("EnableFabric after traffic did not panic")
		}
	}()
	n.EnableFabric(fabricConfig())
}

func TestUtilizationSummary(t *testing.T) {
	e := sim.NewEngine()
	n := New(e, testConfig(), 4)
	f := n.EnableFabric(fabricConfig())
	n.Transfer(0, 2, 1000, sim.FiredSignal())
	e.Run()
	max, mean := f.UtilizationSummary()
	if max <= 0 || mean <= 0 {
		t.Fatalf("summary after cross-pod traffic: max=%g mean=%g, want both > 0", max, mean)
	}
	if mean > max {
		t.Fatalf("mean (%g) exceeds max (%g)", mean, max)
	}
	// 4 links total, 2 busy with equal windows: mean is half the max.
	if diff := mean - max/2; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("mean = %g, want max/2 = %g", mean, max/2)
	}
	nm := New(sim.NewEngine(), testConfig(), 4)
	if mx, mn := nm.LinkUtilization(); mx != 0 || mn != 0 {
		t.Fatalf("NIC-only LinkUtilization = %g/%g, want zeros", mx, mn)
	}
}
