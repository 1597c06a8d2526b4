package netsim

import (
	"reflect"
	"testing"

	"gat/internal/sim"
)

func TestValidRouting(t *testing.T) {
	for _, name := range append([]string{""}, RoutingNames()...) {
		if err := ValidRouting(name); err != nil {
			t.Fatalf("ValidRouting(%q) = %v", name, err)
		}
	}
	if err := ValidRouting("teleport"); err == nil {
		t.Fatal("unknown routing policy should error")
	}
}

// routedNetwork builds a fabric network for routing tests: `groups`
// dragonfly-by-default groups of 2 nodes, one uplink per group unless
// widened, per-run seed fixed so routers reproduce.
func routedNetwork(t *testing.T, topo, routing string, groups, uplinks int, seed uint64) (*sim.Engine, *Network, *Fabric) {
	t.Helper()
	e := sim.NewEngine()
	cfg := testConfig()
	cfg.Topology = topo
	cfg.JitterSeed = seed
	n := New(e, cfg, 2*groups)
	fc := fabricConfig()
	fc.UplinksPerPod = uplinks
	fc.Routing = routing
	return e, n, n.EnableFabric(fc)
}

// shiftTraffic sends one message per node to its counterpart one group
// ahead — all-cross-group traffic touching every router path.
func shiftTraffic(e *sim.Engine, n *Network, nodes int) sim.Time {
	for src := 0; src < nodes; src++ {
		n.Transfer(src, (src+2)%nodes, 1000, sim.FiredSignal())
	}
	e.Run()
	return e.Now()
}

// TestMinimalRoutingMatchesLegacy: Routing "" and "minimal" are the
// same policy, and on every topology they reproduce identical traffic
// timelines and per-link utilization — the byte-identity contract that
// keeps pre-Router sweep goldens valid.
func TestMinimalRoutingMatchesLegacy(t *testing.T) {
	for _, topo := range []string{TopoFatTree, TopoDragonfly, TopoTorus, TopoSlimFly} {
		run := func(routing string) (sim.Time, map[string]float64) {
			e, n, f := routedNetwork(t, topo, routing, 4, 2, 7)
			return shiftTraffic(e, n, 8), f.Utilizations()
		}
		tEmpty, uEmpty := run("")
		tMin, uMin := run(RoutingMinimal)
		if tEmpty != tMin || !reflect.DeepEqual(uEmpty, uMin) {
			t.Fatalf("%s: empty vs %q routing diverged: %v vs %v", topo, RoutingMinimal, tEmpty, tMin)
		}
	}
}

// TestRouterDeterminism: with one seed, each stateful policy makes
// identical choices run over run — the whole timeline and every link's
// utilization reproduce. The per-link utilization map is the sharpest
// cheap observable: any diverging RNG draw or penalty update lands
// some message on a different link.
func TestRouterDeterminism(t *testing.T) {
	for _, routing := range []string{RoutingValiant, RoutingAdaptive} {
		t.Run(routing, func(t *testing.T) {
			run := func(seed uint64) (sim.Time, map[string]float64) {
				e, n, f := routedNetwork(t, TopoDragonfly, routing, 4, 2, seed)
				return shiftTraffic(e, n, 8), f.Utilizations()
			}
			t1, u1 := run(42)
			t2, u2 := run(42)
			if t1 != t2 || !reflect.DeepEqual(u1, u2) {
				t.Fatalf("%s: same seed diverged: %v vs %v\n%v\n%v", routing, t1, t2, u1, u2)
			}
		})
	}
	// And the Valiant stream really is seed-dependent: across many
	// seeds, at least one must land detours differently. (Per-seed
	// collisions are possible — 4 groups — but not across all of them.)
	base, baseU := func() (sim.Time, map[string]float64) {
		e, n, f := routedNetwork(t, TopoDragonfly, RoutingValiant, 4, 2, 0)
		return shiftTraffic(e, n, 8), f.Utilizations()
	}()
	for seed := uint64(1); seed <= 16; seed++ {
		e, n, f := routedNetwork(t, TopoDragonfly, RoutingValiant, 4, 2, seed)
		tt := shiftTraffic(e, n, 8)
		if tt != base || !reflect.DeepEqual(f.Utilizations(), baseU) {
			return
		}
	}
	t.Fatal("valiant routing ignored its seed: 17 seeds, identical timelines")
}

// TestUnreadSeedChangesNothing pins Config.ReadsSeed: on every
// topology and routing policy, a network that ReadsSeed says ignores
// JitterSeed must run identically under two seeds. A new reader of the
// seed that ReadsSeed does not know fails here.
func TestUnreadSeedChangesNothing(t *testing.T) {
	for _, topo := range []string{TopoFatTree, TopoDragonfly, TopoTorus, TopoSlimFly} {
		for _, routing := range append([]string{""}, RoutingNames()...) {
			fc := fabricConfig()
			fc.Routing = routing
			if testConfig().ReadsSeed(&fc) {
				continue
			}
			// Every ordered pair of the 8 nodes, twice: each message's
			// arrival time and every link's utilization must match.
			run := func(seed uint64) ([]sim.Time, map[string]float64) {
				e, n, f := routedNetwork(t, topo, routing, 4, 2, seed)
				at := make([]sim.Time, 0, 2*8*7)
				for msg := 0; msg < 2*8*8; msg++ {
					src, dst := msg%8, msg/8%8
					if src == dst {
						continue
					}
					i := len(at)
					at = append(at, 0)
					n.Transfer(src, dst, int64(500+100*msg), sim.FiredSignal()).OnFire(e, func() { at[i] = e.Now() })
				}
				e.Run()
				return at, f.Utilizations()
			}
			a1, u1 := run(1)
			a2, u2 := run(2)
			if !reflect.DeepEqual(a1, a2) || !reflect.DeepEqual(u1, u2) {
				t.Errorf("%s/%q: ReadsSeed is false, but seeds 1 and 2 diverged:\n%v\n%v", topo, routing, a1, a2)
			}
		}
	}
}

// TestAdaptivePenaltyEvolution: the penalty table is live state — a
// backlogged wave must steer the next wave's choices. Observable as:
// with adaptive routing, repeating an adversarial wave pattern leaves
// strictly more links busy than minimal routing does (which hashes the
// same flows onto the same links every wave).
func TestAdaptivePenaltyEvolution(t *testing.T) {
	busyLinks := func(routing string) int {
		e, n, f := routedNetwork(t, TopoDragonfly, routing, 4, 2, 7)
		ready := sim.FiredSignal()
		for wave := 0; wave < 3; wave++ {
			var arrivals []*sim.Signal
			for src := 0; src < 8; src++ {
				arrivals = append(arrivals, n.Transfer(src, (src+2)%8, 200000, ready))
			}
			ready = sim.AllOf(e, arrivals...)
		}
		e.Run()
		busy := 0
		for _, u := range f.Utilizations() {
			if u > 0 {
				busy++
			}
		}
		return busy
	}
	min, ad := busyLinks(RoutingMinimal), busyLinks(RoutingAdaptive)
	if ad <= min {
		t.Fatalf("adaptive routing spread traffic over %d links, minimal over %d; want adaptive > minimal", ad, min)
	}
}

// TestAdaptiveReducesMaxUtil is the congestion-relief claim in
// miniature: under adversarial shift traffic on a tapered dragonfly,
// the adaptive router's hottest link is measurably cooler than the
// minimal router's.
func TestAdaptiveReducesMaxUtil(t *testing.T) {
	maxUtil := func(routing string) float64 {
		e, n, f := routedNetwork(t, TopoDragonfly, routing, 4, 2, 7)
		ready := sim.FiredSignal()
		for wave := 0; wave < 4; wave++ {
			var arrivals []*sim.Signal
			for src := 0; src < 8; src++ {
				arrivals = append(arrivals, n.Transfer(src, (src+2)%8, 500000, ready))
			}
			ready = sim.AllOf(e, arrivals...)
		}
		e.Run()
		mx, _ := f.UtilizationSummary()
		return mx
	}
	min, ad := maxUtil(RoutingMinimal), maxUtil(RoutingAdaptive)
	if ad >= min {
		t.Fatalf("adaptive max link util %.4f, minimal %.4f; want adaptive < minimal", ad, min)
	}
}

// TestRoutingNeverUndercutsLookahead pins the PDES contract documented
// on CrossGroupLatency: on every topology, no routing policy ever
// returns a route shorter than the topology's minimal path, so the
// lookahead bound — priced off minimal hop counts — stays conservative
// under every policy. Checked exhaustively over node pairs and, for
// the stateful routers, across repeated calls (RNG and penalty state
// must not open a shortcut either).
func TestRoutingNeverUndercutsLookahead(t *testing.T) {
	for _, topo := range []string{TopoFatTree, TopoDragonfly, TopoTorus, TopoSlimFly} {
		for _, routing := range RoutingNames() {
			_, n, f := routedNetwork(t, topo, routing, 6, 2, 9)
			r := f.Router()
			nodes := 12
			for trial := 0; trial < 3; trial++ {
				for src := 0; src < nodes; src++ {
					for dst := 0; dst < nodes; dst++ {
						if n.topo.Group(src) == n.topo.Group(dst) {
							continue
						}
						minHops := n.topo.Hops(src, dst)
						route := r.Route(src, dst)
						if route.Hops < minHops {
							t.Fatalf("%s/%s: route %d→%d has %d hops, minimal is %d — undercuts the lookahead bound",
								topo, routing, src, dst, route.Hops, minHops)
						}
						if len(route.Claims) == 0 {
							t.Fatalf("%s/%s: cross-group route %d→%d claims no links", topo, routing, src, dst)
						}
						// And the minimal hop count itself never undercuts
						// the adjacent-group distance the lookahead prices.
						if minHops < n.topo.CrossGroupHops() {
							t.Fatalf("%s: minimal %d→%d hops %d below CrossGroupHops %d",
								topo, src, dst, minHops, n.topo.CrossGroupHops())
						}
					}
				}
			}
		}
	}
}

// TestValiantDetourLengthens: a Valiant route through a genuine
// intermediate group claims more links than the minimal route — the
// load-balancing detour is real, not a relabeled minimal path.
func TestValiantDetourLengthens(t *testing.T) {
	_, n, f := routedNetwork(t, TopoDragonfly, RoutingValiant, 6, 1, 3)
	minimal := n.topo.Hops(0, 2)
	sawDetour := false
	r := f.Router()
	for i := 0; i < 64 && !sawDetour; i++ {
		if r.Route(0, 2).Hops > minimal {
			sawDetour = true
		}
	}
	if !sawDetour {
		t.Fatal("64 Valiant routes on a 6-group dragonfly never detoured")
	}
}
