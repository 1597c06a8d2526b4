package bench

import (
	"fmt"

	"gat/internal/app"
	"gat/internal/jacobi"
	"gat/internal/machine"
	"gat/internal/netsim"
)

// Scenarios beyond the paper's evaluation: the same experiment shapes
// pointed at other applications and machine profiles, plus the
// topology/congestion studies over the detailed contention fabric. The
// non-Summit profiles are illustrative datasheet models (see
// internal/machine), so these quantify trends, not paper claims.

func registerExtraScenarios() {
	RegisterScenario(scalingScenario())
	RegisterScenario(jacobiMachineScenario("jacobi-perlmutter", "perlmutter"))
	RegisterScenario(jacobiMachineScenario("jacobi-frontier", "frontier"))
	RegisterScenario(minimdLBScenario("minimd-lb", "summit", 32))
	RegisterScenario(minimdLBScenario("minimd-frontier", "frontier", 16))
	RegisterScenario(minimdODFScenario())
	RegisterScenario(ringODFScenario("ring-odf", "summit"))
	RegisterScenario(ringODFScenario("ring-odf-perlmutter", "perlmutter"))
	RegisterScenario(jacobiTaperScenario())
	RegisterScenario(jacobiTaperMsgScenario())
	RegisterScenario(minimdTaperScenario())
	RegisterScenario(jacobiMachineScenario("jacobi-dragonfly", "perlmutter-dragonfly"))
	// The dragonfly profiles group 16 nodes per router group, so the
	// axis must reach 32 for any transfer to cross a global link.
	RegisterScenario(minimdLBScenario("minimd-dragonfly", "frontier-dragonfly", 32))
	RegisterScenario(jacobiExascaleScenario())
	registerRoutingScenarios()
}

// congested copies the run's fabric-link congestion summary and
// routing policy onto its figure point (zeros/empty on NIC-only
// machines), so per-run reports say where a point was network-bound
// and which route-choice policy made it so.
func congested(p Point, r app.Metrics) Point {
	p.MaxLinkUtil, p.MeanLinkUtil = r.MaxLinkUtil, r.MeanLinkUtil
	p.Routing = r.Routing
	return p
}

// taperedAt returns the machine hook attaching a contention fabric
// tapered by ratio t to the cell's base profile (3 parallel uplinks
// per switch group, matching the summit-tapered-* profiles).
func taperedAt(t float64) func(*machine.Config) {
	return func(cfg *machine.Config) {
		cfg.Fabric = &netsim.FabricConfig{Taper: t, UplinksPerPod: 3}
	}
}

// taperAxis sweeps the taper ratio x in {1,4,16,32} at a fixed
// machine size — hi nodes, at least two switch groups on the target
// profile so cross-group traffic exists for the fabric to contend.
// The axis reaches deep tapers deliberately: on two Summit pods the
// halo plane only saturates the shared uplinks past ~8:1, and the
// interesting comparison — blocking MPI degrading while overdecomposed
// async variants stay flat — needs the saturated end.
func taperAxis(hi int) func(opt Options) []AxisPoint {
	return func(opt Options) []AxisPoint {
		nodes := scaleNodes(hi, opt)
		var pts []AxisPoint
		for _, taper := range []int{1, 4, 16, 32} {
			pts = append(pts, AxisPoint{X: taper, Nodes: nodes})
		}
		return pts
	}
}

// crossesPods returns the Undersized check of a scenario sized for hi
// nodes, more than one pod (switch or router group) on every profile,
// whose axis runs at scaleNodes(hi) and whose effect needs traffic
// between pods: on a machine inside one pod every taper ratio and
// routing policy reads the same.
func crossesPods(hi int) func(Options, machine.Profile) string {
	return func(opt Options, prof machine.Profile) string {
		nodes := scaleNodes(hi, opt)
		pod := prof.Build(nodes).Net.EffectivePodSize()
		if nodes > pod {
			return ""
		}
		return fmt.Sprintf("%d nodes fit in one %d-node pod, so no traffic crosses the tapered links and every point reads the same; it needs -maxnodes %d",
			nodes, pod, hi)
	}
}

// rebalances is the Undersized check of the miniMD load-balancing
// scenarios: a run of app.MiniMDRebalanceEvery steps or fewer ends
// before the balancer first runs, so LoadBalanced reads as Static.
func rebalances(opt Options, _ machine.Profile) string {
	if opt.Iters <= 0 || opt.Iters > app.MiniMDRebalanceEvery {
		return ""
	}
	return fmt.Sprintf("-iters %d ends each run before the load balancer first runs, after step %d, so LoadBalanced reads the same as Static; it needs -iters %d or more",
		opt.Iters, app.MiniMDRebalanceEvery, app.MiniMDRebalanceEvery+1)
}

// jacobiTaperScenario sweeps the fabric taper ratio under the Jacobi3D
// halo exchange: two Summit pods (36 nodes), host-staged MPI and the
// GPU-aware Charm variant. At taper 1:1 the fabric is fully
// provisioned and adds no contention; as the ratio grows the shared
// uplinks saturate and MPI-H's iteration time rises, while the
// overdecomposed Charm-D stays flat until the links hit ~100%
// utilization — the paper's overlap claim stressed by, and surviving,
// a pushed-back network.
func jacobiTaperScenario() *Scenario {
	cell := func(variant string) CellFn {
		return func(c *Cell) Point {
			r := c.RunWith(taperedAt(float64(c.X)), variant, c.Defaults())
			return congested(Point{Nodes: c.X, Value: us(r.TimePerIter)}, r)
		}
	}
	return &Scenario{
		Name:  "jacobi-taper",
		Title: "Jacobi3D halo exchange vs fat-tree taper ratio, 2 Summit pods",
		App:   "jacobi3d", Machine: "summit", Kind: KindExtra,
		XLabel: "taper", YLabel: "time/iter (us)",
		Axis:       taperAxis(36),
		Undersized: crossesPods(36),
		Series: []SeriesDef{
			{"MPI-H", cell("mpi-h")},
			{"Charm-D", cell("charm-d")},
		},
	}
}

// jacobiTaperMsgScenario sweeps the halo message size (per-node grid
// side) under fixed taper ratios: the message-size axis of the
// congestion study. Larger grids exchange larger halos, so the tapered
// series diverge from the 1:1 baseline as messages grow.
func jacobiTaperMsgScenario() *Scenario {
	cell := func(taper float64) CellFn {
		return func(c *Cell) Point {
			p := c.Defaults()
			p.Global = jacobi.WeakGlobal([3]int{c.X, c.X, c.X}, c.Nodes)
			r := c.RunWith(taperedAt(taper), "mpi-d", p)
			return congested(Point{Nodes: c.X, Value: us(r.TimePerIter)}, r)
		}
	}
	return &Scenario{
		Name:  "jacobi-taper-msgsize",
		Title: "Jacobi3D MPI-D vs per-node grid size under fabric taper, 2 Summit pods",
		App:   "jacobi3d", Machine: "summit", Kind: KindExtra,
		XLabel: "side/node", YLabel: "time/iter (us)",
		Axis: func(opt Options) []AxisPoint {
			nodes := scaleNodes(36, opt)
			var pts []AxisPoint
			for _, side := range []int{128, 192, 256} {
				pts = append(pts, AxisPoint{X: side, Nodes: nodes})
			}
			return pts
		},
		Undersized: crossesPods(36),
		Series: []SeriesDef{
			{"Taper1", cell(1)},
			{"Taper8", cell(8)},
			{"Taper32", cell(32)},
		},
	}
}

// minimdTaperScenario sweeps the fabric taper ratio under the miniMD
// proxy's neighbor exchange at a fixed machine size. It is the
// contrast case: the 1-D patch chain crosses the pod boundary exactly
// once, so even deep tapers leave it latency-bound — step time stays
// flat while the link-utilization column confirms the fabric saw the
// (small) cross-pod flow. Not every workload congests.
func minimdTaperScenario() *Scenario {
	return &Scenario{
		Name:  "minimd-taper",
		Title: "miniMD neighbor exchange vs fat-tree taper ratio",
		App:   "minimd", Machine: "summit", Kind: KindExtra,
		XLabel: "taper", YLabel: "time/step (ms)",
		Axis:       taperAxis(36),
		Undersized: crossesPods(36),
		Series: []SeriesDef{
			{"Static", func(c *Cell) Point {
				r := c.RunWith(taperedAt(float64(c.X)), "charm-static", app.Params{ODF: 4})
				return congested(Point{Nodes: c.X, Value: ms(r.TimePerIter)}, r)
			}},
		},
	}
}

// jacobiExascaleScenario weak-scales the Jacobi3D LP model (see
// jacobi.RunExa) to exascale node counts on the dragonfly profile —
// far past what the full per-GPU simulation sweeps reach. It is the
// first app-less scenario: the machine config is consumed as a cost
// model only, and the cell honors the sweep's -shards knob, running
// the point on the conservative parallel-in-run engine with
// byte-identical output at any shard count (the pdes guarantee; the
// partition diagnostics stay in jacobi.ExaResult, never in the point).
func jacobiExascaleScenario() *Scenario {
	cell := func(overlap bool) CellFn {
		return func(c *Cell) Point {
			wu, it := c.Iterations()
			r := jacobi.RunExa(c.Config(), jacobi.Config{
				Global: jacobi.WeakGlobal([3]int{192, 192, 192}, c.Nodes),
				Warmup: wu, Iters: it,
			}, jacobi.ExaOpts{Shards: c.Shards(), Overlap: overlap})
			return Point{Nodes: c.Nodes, Value: us(r.TimePerIter)}
		}
	}
	return &Scenario{
		Name:  "jacobi-exascale",
		Title: "Jacobi3D LP model weak scaling 192^3/node, perlmutter-dragonfly",
		App:   "", Machine: "perlmutter-dragonfly", Kind: KindExtra,
		XLabel: "nodes", YLabel: "time/iter (us)",
		Axis: nodeAxis(1024, 16384),
		Series: []SeriesDef{
			{"Blocking", cell(false)},
			{"Overlap", cell(true)},
		},
	}
}

// scalingScenario is the app-generic scaling sweep: one series per
// variant of the resolved application, each run with the app's default
// parameters at every node count. It is the scenario -app retargets:
//
//	sweep -scenario scaling -app minimd -machine frontier
func scalingScenario() *Scenario {
	return &Scenario{
		Name:  "scaling",
		Title: "Scaling of every variant, app defaults per node count",
		App:   "jacobi3d", Machine: "summit", Kind: KindExtra,
		XLabel: "nodes", YLabel: "time/iter (ms)",
		Axis: nodeAxis(1, 64),
		SeriesFor: func(a app.App) []SeriesDef {
			var out []SeriesDef
			for _, v := range a.Variants() {
				v := v
				out = append(out, SeriesDef{v, func(c *Cell) Point {
					r := c.Run(v, c.Defaults())
					return congested(Point{Nodes: c.Nodes, Value: ms(r.TimePerIter)}, r)
				}})
			}
			return out
		},
	}
}

// jacobiMachineScenario is the Fig 7b experiment shape (weak scaling
// of the small problem across all four variants, fixed ODF-4 instead
// of a best-ODF search to keep cross-machine sweeps cheap) on a
// non-Summit profile.
func jacobiMachineScenario(name, profile string) *Scenario {
	cell := func(variant string) CellFn {
		return func(c *Cell) Point {
			p := c.Defaults() // weak-scaled 192^3/node, ODF-4
			r := c.Run(variant, p)
			return congested(Point{Nodes: c.Nodes, Value: us(r.TimePerIter)}, r)
		}
	}
	return &Scenario{
		Name:  name,
		Title: "Weak scaling 192^3/node on " + profile + " (illustrative profile)",
		App:   "jacobi3d", Machine: profile, Kind: KindExtra,
		XLabel: "nodes", YLabel: "time/iter (us)",
		Axis: nodeAxis(1, 64),
		Series: []SeriesDef{
			{"MPI-H", cell("mpi-h")},
			{"MPI-D", cell("mpi-d")},
			{"Charm-H", cell("charm-h")},
			{"Charm-D", cell("charm-d")},
		},
	}
}

// minimdLBScenario weak-scales the miniMD proxy and measures what
// periodic greedy load balancing buys on its non-uniform patch
// densities.
func minimdLBScenario(name, profile string, hi int) *Scenario {
	cell := func(variant string) CellFn {
		return func(c *Cell) Point {
			r := c.Run(variant, app.Params{ODF: 4})
			return congested(Point{Nodes: c.Nodes, Value: ms(r.TimePerIter)}, r)
		}
	}
	return &Scenario{
		Name:  name,
		Title: "miniMD static vs load-balanced patches on " + profile,
		App:   "minimd", Machine: profile, Kind: KindExtra,
		XLabel: "nodes", YLabel: "time/step (ms)",
		Axis:       nodeAxis(1, hi),
		Undersized: rebalances,
		Series: []SeriesDef{
			{"Static", cell("charm-static")},
			{"LoadBalanced", cell("charm-lb")},
		},
	}
}

// minimdODFScenario sweeps the patch overdecomposition factor at a
// fixed machine size — the miniMD analogue of abl-odf.
func minimdODFScenario() *Scenario {
	cell := func(variant string) CellFn {
		return func(c *Cell) Point {
			r := c.Run(variant, app.Params{ODF: c.X})
			return Point{Nodes: c.X, Value: ms(r.TimePerIter)}
		}
	}
	return &Scenario{
		Name:  "minimd-odf",
		Title: "miniMD ODF sensitivity at a fixed machine size",
		App:   "minimd", Machine: "summit", Kind: KindExtra,
		XLabel: "odf", YLabel: "time/step (ms)",
		Axis: func(opt Options) []AxisPoint {
			nodes := scaleNodes(4, opt)
			var pts []AxisPoint
			for _, odf := range []int{1, 2, 4, 8} {
				pts = append(pts, AxisPoint{X: odf, Nodes: nodes})
			}
			return pts
		},
		Series: []SeriesDef{
			{"Static", cell("charm-static")},
			{"LoadBalanced", cell("charm-lb")},
		},
	}
}

// ringODFScenario sweeps the ring app's overdecomposition factor on a
// two-node machine: the quickstart experiment (overdecomposition hides
// communication) as a registered scenario.
func ringODFScenario(name, profile string) *Scenario {
	return &Scenario{
		Name:  name,
		Title: "Ring of GPU tasks: ODF hides communication, on " + profile,
		App:   "ring", Machine: profile, Kind: KindExtra,
		XLabel: "odf", YLabel: "time/step (ms)",
		Axis: func(opt Options) []AxisPoint {
			var pts []AxisPoint
			for _, odf := range []int{1, 2, 4, 8} {
				pts = append(pts, AxisPoint{X: odf, Nodes: 2})
			}
			return pts
		},
		Series: []SeriesDef{
			{"Ring", func(c *Cell) Point {
				r := c.Run("ring", app.Params{ODF: c.X})
				return Point{Nodes: c.X, Value: ms(r.TimePerIter)}
			}},
		},
	}
}
