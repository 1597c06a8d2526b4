package netsim

import (
	"testing"

	"gat/internal/sim"
)

func lookaheadCfg() Config {
	c := Summit()
	c.PodSize = 4
	return c
}

// TestPathLatencyMatchesNetwork checks the static path model against an
// instantiated jitter-free network for every pair of a two-pod cluster,
// on both geometries.
func TestPathLatencyMatchesNetwork(t *testing.T) {
	for _, name := range []string{TopoFatTree, TopoDragonfly, TopoTorus, TopoSlimFly} {
		cfg := lookaheadCfg()
		cfg.Topology = name
		topo, err := TopologyByName(name, cfg.PodSize, 8)
		if err != nil {
			t.Fatal(err)
		}
		n := New(sim.NewEngine(), cfg, 8)
		for a := 0; a < 8; a++ {
			for b := 0; b < 8; b++ {
				if got, want := PathLatency(cfg, topo, a, b), n.Latency(a, b); got != want {
					t.Fatalf("%s: PathLatency(%d,%d) = %v, Network.Latency = %v", name, a, b, got, want)
				}
			}
		}
	}
}

func TestCrossGroupHops(t *testing.T) {
	for _, c := range []struct {
		name string
		want int
	}{{TopoFatTree, 4}, {TopoDragonfly, 3}, {TopoTorus, 3}, {TopoSlimFly, 3}} {
		topo, err := TopologyByName(c.name, 4, 8)
		if err != nil {
			t.Fatal(err)
		}
		if got := topo.CrossGroupHops(); got != c.want {
			t.Errorf("%s: CrossGroupHops = %d, want %d", c.name, got, c.want)
		}
		// The method must agree with Hops on an actual cross-group pair.
		if got := topo.Hops(0, 4); got != c.want {
			t.Errorf("%s: Hops(0,4) = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestMinCrossLatency checks the lookahead derivation: zero without a
// real split, the cross-group latency for a group-aligned partition,
// and the in-group latency once a group is split across shards.
func TestMinCrossLatency(t *testing.T) {
	cfg := lookaheadCfg()
	cfg.Topology = TopoDragonfly
	topo, err := TopologyByName(cfg.Topology, cfg.PodSize, 8)
	if err != nil {
		t.Fatal(err)
	}
	crossGroup := cfg.LatencyBase + 2*cfg.LatencyPerHop // 3 hops
	inGroup := cfg.LatencyBase + cfg.LatencyPerHop      // 2 hops

	if got := MinCrossLatency(cfg, topo, 8, func(int) int { return 0 }); got != 0 {
		t.Errorf("single shard: lookahead = %v, want 0", got)
	}
	if got := MinCrossLatency(cfg, topo, 1, func(n int) int { return n }); got != 0 {
		t.Errorf("single node: lookahead = %v, want 0", got)
	}
	aligned := func(n int) int { return topo.Group(n) % 2 }
	if got := MinCrossLatency(cfg, topo, 8, aligned); got != crossGroup {
		t.Errorf("group-aligned: lookahead = %v, want %v", got, crossGroup)
	}
	split := func(n int) int { return n % 2 }
	if got := MinCrossLatency(cfg, topo, 8, split); got != inGroup {
		t.Errorf("split group: lookahead = %v, want %v", got, inGroup)
	}
}
