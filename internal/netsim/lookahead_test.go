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

// TestCrossGroupLatency checks the lookahead bound on every geometry:
// it is the smallest wire latency between nodes of different groups of
// a three-group cluster, and on the dragonfly it prices 3 hops.
func TestCrossGroupLatency(t *testing.T) {
	for _, name := range []string{TopoFatTree, TopoDragonfly, TopoTorus, TopoSlimFly} {
		cfg := lookaheadCfg()
		cfg.Topology = name
		const nodes = 12
		topo, err := TopologyByName(name, cfg.PodSize, nodes)
		if err != nil {
			t.Fatal(err)
		}
		want := sim.Time(-1)
		for a := 0; a < nodes; a++ {
			for b := 0; b < nodes; b++ {
				if l := PathLatency(cfg, topo, a, b); topo.Group(a) != topo.Group(b) && (want < 0 || l < want) {
					want = l
				}
			}
		}
		if got := CrossGroupLatency(cfg, topo); got != want {
			t.Errorf("%s: CrossGroupLatency = %v, smallest cross-group PathLatency = %v", name, got, want)
		}
		if name == TopoDragonfly && want != cfg.LatencyBase+2*cfg.LatencyPerHop {
			t.Errorf("dragonfly: cross-group latency %v, want 3 hops' worth", want)
		}
	}
}
