package bench

import (
	"gat/internal/machine"
	"gat/internal/netsim"
	"gat/internal/sim"
)

// Routing-policy scenarios: the congestion studies of the taper sweeps
// with route choice itself as the experiment axis. All run on the
// perlmutter-dragonfly profile at three router groups (48 nodes, 16
// per group) — the smallest machine where a non-minimal route has an
// intermediate group to detour through — and sweep the taper ratio, so
// each figure reads "does this policy move the congestion point". The
// app-backed scenario exercises a real halo exchange; the two
// traffic-pattern scenarios drive the network directly (app-less, like
// jacobi-exascale) with patterns chosen to stress routing: an incast
// hotspot and an adversarial rank placement that aligns every flow
// onto the same inter-group links.

func registerRoutingScenarios() {
	RegisterScenario(jacobiAdaptiveVsMinimalScenario())
	RegisterScenario(hotspotScenario())
	RegisterScenario(jacobiAdversarialMappingScenario())
}

// routedAt returns the machine hook setting the fabric taper and
// routing policy on the cell's base profile (which must already carry
// a fabric, as the dragonfly profiles do — the uplink count and
// topology stay the profile's own).
func routedAt(taper float64, routing string) func(*machine.Config) {
	return func(cfg *machine.Config) {
		cfg.Fabric.Taper = taper
		cfg.Fabric.Routing = routing
	}
}

// runWaves drives a synthetic flow set over the machine's network:
// each wave sends bytes along every flow, and the next wave starts
// once the previous one has fully arrived — so later waves see the
// occupancy (and, under adaptive routing, the penalty state) earlier
// waves left behind. Returns the simulated completion time.
func runWaves(m *machine.Machine, flows [][2]int, bytes int64, waves int) sim.Time {
	e := m.Eng
	ready := sim.FiredSignal()
	for w := 0; w < waves; w++ {
		arrivals := make([]*sim.Signal, 0, len(flows))
		for _, f := range flows {
			arrivals = append(arrivals, m.Net.Transfer(f[0], f[1], bytes, ready))
		}
		ready = sim.AllOf(e, arrivals...)
	}
	e.Run()
	return e.Now()
}

// jacobiAdaptiveVsMinimalScenario is the headline routing study: the
// Jacobi3D halo exchange under the existing taper axis, minimal vs
// adaptive routing on an otherwise identical dragonfly. Past taper 4
// the flow-hashed minimal route leaves some global links saturated
// while their parallels idle; the adaptive router resolves each claim
// to the least-loaded link and detours when backlog exceeds the extra
// wire cost, so its max_link_util column reads lower at equal taper.
func jacobiAdaptiveVsMinimalScenario() *Scenario {
	cell := func(routing string) CellFn {
		return func(c *Cell) Point {
			r := c.RunWith(routedAt(float64(c.X), routing), "mpi-d", c.Defaults())
			return congested(Point{Nodes: c.X, Value: us(r.TimePerIter)}, r)
		}
	}
	return &Scenario{
		Name:  "jacobi-adaptive-vs-minimal",
		Title: "Jacobi3D halo exchange vs dragonfly taper, minimal vs adaptive routing",
		App:   "jacobi3d", Machine: "perlmutter-dragonfly", Kind: KindExtra,
		XLabel: "taper", YLabel: "time/iter (us)",
		Axis:       taperAxis(48),
		Undersized: crossesPods(48),
		Series: []SeriesDef{
			{"Minimal", cell(netsim.RoutingMinimal)},
			{"Adaptive", cell(netsim.RoutingAdaptive)},
		},
	}
}

// hotspotFlows aims every other node at node 0 — the incast pattern.
func hotspotFlows(nodes int) [][2]int {
	var flows [][2]int
	for i := 1; i < nodes; i++ {
		flows = append(flows, [2]int{i, 0})
	}
	return flows
}

// hotspotScenario drives pure incast traffic at node 0 under each
// routing policy. No policy can widen the victim group's ingress
// aggregate, but they differ in how they use its parallel links:
// minimal's flow hash can collapse several heavy flows onto one link,
// adaptive balances them by occupancy, and Valiant pays extra global
// hops for no incast benefit — three distinct (completion time,
// max_link_util) signatures over the same taper axis.
func hotspotScenario() *Scenario {
	cell := func(routing string) CellFn {
		return func(c *Cell) Point {
			m := c.NewMachine(routedAt(float64(c.X), routing))
			total := runWaves(m, hotspotFlows(c.Nodes), 4<<20, 4)
			return congested(Point{Nodes: c.X, Value: ms(total)}, m.Metrics(0))
		}
	}
	return &Scenario{
		Name:  "hotspot",
		Title: "Incast hotspot at node 0 vs dragonfly taper, by routing policy",
		App:   "", Machine: "perlmutter-dragonfly", Kind: KindExtra,
		XLabel: "taper", YLabel: "completion (ms)",
		Axis:       taperAxis(48),
		Undersized: crossesPods(48),
		Series: []SeriesDef{
			{"Minimal", cell(netsim.RoutingMinimal)},
			{"Valiant", cell(netsim.RoutingValiant)},
			{"Adaptive", cell(netsim.RoutingAdaptive)},
		},
	}
}

// adversarialFlows places every rank's halo partner exactly one router
// group away: node i talks to node (i + groupSize) mod nodes. Every
// flow is cross-group, and all of group g's egress traffic aims at
// group g+1 — the worst case for minimal routing, which must carry
// each group's whole plane over one group-pair's links while every
// other global link idles.
func adversarialFlows(nodes, groupSize int) [][2]int {
	var flows [][2]int
	for i := 0; i < nodes; i++ {
		flows = append(flows, [2]int{i, (i + groupSize) % nodes})
	}
	return flows
}

// jacobiAdversarialMappingScenario is the adversarial rank-placement
// study: the halo-plane pattern of a jacobi decomposition mapped so
// that every exchange crosses to the next router group. Minimal
// routing concentrates each group's full plane onto its g→g+1 links;
// Valiant spreads the same traffic over every group uniformly at the
// cost of doubled hops; adaptive detours only while the direct links
// are backlogged.
func jacobiAdversarialMappingScenario() *Scenario {
	cell := func(routing string) CellFn {
		return func(c *Cell) Point {
			m := c.NewMachine(routedAt(float64(c.X), routing))
			podSize := m.Cfg.Net.PodSize
			total := runWaves(m, adversarialFlows(c.Nodes, podSize), 4<<20, 4)
			return congested(Point{Nodes: c.X, Value: ms(total)}, m.Metrics(0))
		}
	}
	return &Scenario{
		Name:  "jacobi-adversarial-mapping",
		Title: "Adversarial halo mapping (partner = next group) vs taper, by routing policy",
		App:   "", Machine: "perlmutter-dragonfly", Kind: KindExtra,
		XLabel: "taper", YLabel: "completion (ms)",
		Axis:       taperAxis(48),
		Undersized: crossesPods(48),
		Series: []SeriesDef{
			{"Minimal", cell(netsim.RoutingMinimal)},
			{"Valiant", cell(netsim.RoutingValiant)},
			{"Adaptive", cell(netsim.RoutingAdaptive)},
		},
	}
}
