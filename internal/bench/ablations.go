package bench

import (
	"fmt"
	"unsafe"

	"gat/internal/app"
	"gat/internal/comm"
	"gat/internal/sim"
)

// Ablation experiments for three of the paper's design choices:
// stream priorities (§III-A), the Channel API vs the older GPU
// Messaging API (§II-B), and the manual-overlap option of the MPI
// variant (Fig 1b). These have no paper figure; they quantify how much
// each mechanism contributes in our reproduction.

func registerAblationScenarios() {
	RegisterScenario(ablPriorityScenario())
	RegisterScenario(ablOverlapScenario())
	RegisterScenario(ablChannelAPIScenario())
	RegisterScenario(ablODFScenario())
}

// ablPriorityScenario compares Charm-D with and without high-priority
// streams for packing and transfers, strong scaling a 768^3 grid.
func ablPriorityScenario() *Scenario {
	cell := func(flat bool) CellFn {
		return func(c *Cell) Point {
			r := c.Run("charm-d", app.Params{Global: fusionGlobal, ODF: 4, FlatPriority: flat})
			c.Progress("t=%v", r.TimePerIter)
			return Point{Nodes: c.Nodes, Value: us(r.TimePerIter)}
		}
	}
	return &Scenario{
		Name: "abl-priority", Title: "High-priority communication streams on/off",
		App: "jacobi3d", Machine: "summit", Kind: KindAblation,
		XLabel: "nodes", YLabel: "time/iter (us)",
		Axis: nodeAxis(1, 32),
		Series: []SeriesDef{
			{"PriorityStreams", cell(false)},
			{"FlatPriority", cell(true)},
		},
	}
}

// ablOverlapScenario compares the MPI variant with and without the
// manual interior/exterior overlap of Fig 1b, weak scaling the large
// problem.
func ablOverlapScenario() *Scenario {
	cell := func(overlap bool) CellFn {
		return func(c *Cell) Point {
			r := c.Run("mpi-h", app.Params{Global: weakGlobal(weakBaseLarge, c.Nodes), Overlap: overlap})
			c.Progress("t=%v", r.TimePerIter)
			return Point{Nodes: c.Nodes, Value: ms(r.TimePerIter)}
		}
	}
	return &Scenario{
		Name: "abl-overlap", Title: "Manual overlap in MPI Jacobi3D",
		App: "jacobi3d", Machine: "summit", Kind: KindAblation,
		XLabel: "nodes", YLabel: "time/iter (ms)",
		Axis: nodeAxis(1, 32),
		Series: []SeriesDef{
			{"NoOverlap", cell(false)},
			{"ManualOverlap", cell(true)},
		},
	}
}

// ablChannelAPIScenario measures one-way inter-node delivery latency
// of a device buffer under the Channel API vs the GPU Messaging API
// across message sizes. The x column holds log2(bytes) instead of
// nodes; this is a machine-level scenario that bypasses the app layer.
func ablChannelAPIScenario() *Scenario {
	return &Scenario{
		Name: "abl-chanapi", Title: "Channel API vs GPU Messaging API",
		App: "", Machine: "summit", Kind: KindAblation,
		XLabel: "log2B", YLabel: "one-way latency (us)",
		Axis: func(opt Options) []AxisPoint {
			var pts []AxisPoint
			for p := 10; p <= 24; p += 2 {
				pts = append(pts, AxisPoint{X: p, Nodes: 2})
			}
			return pts
		},
		Series: []SeriesDef{
			{"ChannelAPI", func(c *Cell) Point {
				bytes := int64(1) << c.X
				mc := c.NewMachine(nil)
				ch := comm.NewChannel(mc.Net,
					comm.Endpoint{Proc: 0, Node: 0}, comm.Endpoint{Proc: 1, Node: 1})
				var at sim.Time
				ch.Recv(1, 0, &comm.Completion{Fn: stampArrival, Arg: unsafe.Pointer(&at)})
				ch.Send(0, 0, bytes, sim.FiredSignal(), nil)
				mc.Eng.Run()
				c.Progress("t=%v", at)
				return Point{Nodes: c.X, Value: us(at)}
			}},
			{"MessagingAPI", func(c *Cell) Point {
				bytes := int64(1) << c.X
				mm := c.NewMachine(nil)
				var at sim.Time
				comm.MessagingSend(mm.Net, comm.DefaultMessagingConfig(),
					comm.Endpoint{Proc: 0, Node: 0}, comm.Endpoint{Proc: 1, Node: 1},
					bytes, sim.FiredSignal(), &comm.Completion{Fn: stampArrival, Arg: unsafe.Pointer(&at)})
				mm.Eng.Run()
				c.Progress("t=%v", at)
				return Point{Nodes: c.X, Value: us(at)}
			}},
		},
	}
}

// stampArrival records the current time in the sim.Time at arg: the
// receive completion of the abl-chanapi series.
func stampArrival(eng *sim.Engine, arg unsafe.Pointer) { *(*sim.Time)(arg) = eng.Now() }

// ablODFNodes picks the abl-odf machine size: the largest node count
// <= MaxNodes up to 32, clamped to 8 because 3072^3 needs >= 8 nodes
// to fit in 16 GB per GPU (two grid copies) — also why the paper's
// strong scaling starts at 8 nodes.
func ablODFNodes(opt Options) int {
	nodes := scaleNodes(32, opt)
	if nodes < 8 {
		nodes = 8
	}
	return nodes
}

// ablODFScenario sweeps the overdecomposition factor at a fixed
// strong-scaling point, the sensitivity behind the paper's per-point
// best-ODF choice (§IV-A). The x column holds the ODF instead of a
// node count.
func ablODFScenario() *Scenario {
	cell := func(variant string) CellFn {
		return func(c *Cell) Point {
			r := c.Run(variant, app.Params{Global: strongGlobal, ODF: c.X})
			c.Progress("t=%v", r.TimePerIter)
			return Point{Nodes: c.X, Value: ms(r.TimePerIter)}
		}
	}
	return &Scenario{
		Name: "abl-odf", Title: "ODF sensitivity, 3072^3 strong-scaling point",
		TitleFor: func(opt Options) string {
			return fmt.Sprintf("ODF sensitivity, 3072^3 on %d nodes", ablODFNodes(opt))
		},
		App: "jacobi3d", Machine: "summit", Kind: KindAblation,
		XLabel: "odf", YLabel: "time/iter (ms)",
		Axis: func(opt Options) []AxisPoint {
			var pts []AxisPoint
			for _, odf := range []int{1, 2, 4, 8, 16} {
				pts = append(pts, AxisPoint{X: odf, Nodes: ablODFNodes(opt)})
			}
			return pts
		},
		Series: []SeriesDef{
			{"Charm-H", cell("charm-h")},
			{"Charm-D", cell("charm-d")},
		},
	}
}

// GenerateAny resolves any scenario — paper figure, ablation or extra
// — and runs it serially.
func GenerateAny(id string, opt Options) (Figure, error) {
	p, err := PlanScenario(id, opt, Overrides{})
	if err != nil {
		return Figure{}, err
	}
	return p.Run(), nil
}
