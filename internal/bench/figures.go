package bench

import (
	"fmt"

	"gat/internal/app"
)

var weakBaseLarge = [3]int{1536, 1536, 1536}
var weakBaseSmall = [3]int{192, 192, 192}
var strongGlobal = [3]int{3072, 3072, 3072}
var fusionGlobal = [3]int{768, 768, 768}

// registerFigureScenarios registers the paper's figures (§IV), each as
// a scenario over the jacobi3d app on the calibrated Summit profile.
func registerFigureScenarios() {
	RegisterScenario(fig6Scenario(true))
	RegisterScenario(fig6Scenario(false))
	RegisterScenario(variantScenario("fig7a", "Weak scaling 1536^3/node: MPI-H, MPI-D, Charm-H, Charm-D",
		"time/iter (ms)", 1, func(n int) [3]int { return weakGlobal(weakBaseLarge, n) }, false))
	RegisterScenario(variantScenario("fig7b", "Weak scaling 192^3/node: MPI-H, MPI-D, Charm-H, Charm-D",
		"time/iter (us)", 1, func(n int) [3]int { return weakGlobal(weakBaseSmall, n) }, true))
	RegisterScenario(variantScenario("fig7c", "Strong scaling 3072^3: MPI-H, MPI-D, Charm-H, Charm-D",
		"time/iter (ms)", 8, func(int) [3]int { return strongGlobal }, false))
	RegisterScenario(fig8Scenario("fig8a", 1))
	RegisterScenario(fig8Scenario("fig8b", 8))
	RegisterScenario(fig9Scenario("fig9a", 1))
	RegisterScenario(fig9Scenario("fig9b", 8))
}

// fig6Scenario reproduces Fig 6: Charm-H with ODF-4, before vs after
// the §III-C synchronization/stream optimizations, weak (fig6a) or
// strong (fig6b) scaling.
func fig6Scenario(weak bool) *Scenario {
	id, title := "fig6a", "Weak scaling 1536^3/node: Charm-H before vs after optimizations"
	lo := 1
	if !weak {
		id, title = "fig6b", "Strong scaling 3072^3: Charm-H before vs after optimizations"
		lo = 8
	}
	cell := func(unoptimized bool) CellFn {
		return func(c *Cell) Point {
			global := strongGlobal
			if weak {
				global = weakGlobal(weakBaseLarge, c.Nodes)
			}
			r := c.Run("charm-h", app.Params{Global: global, ODF: 4, Unoptimized: unoptimized})
			return Point{Nodes: c.Nodes, Value: ms(r.TimePerIter)}
		}
	}
	return &Scenario{
		Name: id, Title: title, App: "jacobi3d", Machine: "summit", Kind: KindFigure,
		XLabel: "nodes", YLabel: "time/iter (ms)",
		Axis: nodeAxis(lo, 512),
		Series: []SeriesDef{
			{"Before", cell(true)},
			{"After", cell(false)},
		},
	}
}

// variantScenario builds the MPI-H / MPI-D / Charm-H / Charm-D
// comparison repeated in every panel of Fig 7: four independent runs
// per node count, where the Charm entries each search their best ODF,
// as the paper does for every Charm data point (§IV-A).
func variantScenario(id, title, ylabel string, lo int, global func(int) [3]int, inUS bool) *Scenario {
	conv := ms
	if inUS {
		conv = us
	}
	mpiCell := func(variant string) CellFn {
		return func(c *Cell) Point {
			r := c.Run(variant, app.Params{Global: global(c.Nodes)})
			return congested(Point{Nodes: c.Nodes, Value: conv(r.TimePerIter)}, r)
		}
	}
	charmCell := func(variant string) CellFn {
		return func(c *Cell) Point {
			r, odf := bestODFRun(c, variant, global(c.Nodes), odfCandidates(c.Nodes))
			return congested(Point{Nodes: c.Nodes, Value: conv(r.TimePerIter), Meta: fmt.Sprintf("ODF-%d", odf)}, r)
		}
	}
	return &Scenario{
		Name: id, Title: title, App: "jacobi3d", Machine: "summit", Kind: KindFigure,
		XLabel: "nodes", YLabel: ylabel,
		Axis: nodeAxis(lo, 512),
		Series: []SeriesDef{
			{"MPI-H", mpiCell("mpi-h")},
			{"MPI-D", mpiCell("mpi-d")},
			{"Charm-H", charmCell("charm-h")},
			{"Charm-D", charmCell("charm-d")},
		},
	}
}

// bestODFRun runs the Charm variant over the candidate ODFs and returns
// the fastest result and its ODF, as the paper does for every Charm
// data point (§IV-A: "the one with the best performance is chosen").
// All candidate runs share the cell's seed: they are alternatives for
// the same data point, not separate measurements.
func bestODFRun(c *Cell, variant string, global [3]int, odfs []int) (app.Metrics, int) {
	var best app.Metrics
	pick := 0
	for _, odf := range odfs {
		r := c.Run(variant, app.Params{Global: global, ODF: odf})
		if pick == 0 || r.TimePerIter < best.TimePerIter {
			best, pick = r, odf
		}
	}
	return best, pick
}

// fusionStrategies is the strategy axis of Figs 8 and 9.
var fusionStrategies = []string{"none", "A", "B", "C"}

// fig8Scenario runs the kernel-fusion comparison: Charm-D on a 768^3
// grid scaled to 128 nodes, at a fixed ODF.
func fig8Scenario(id string, odf int) *Scenario {
	cell := func(fusion string) CellFn {
		return func(c *Cell) Point {
			r := c.Run("charm-d", app.Params{Global: fusionGlobal, ODF: odf, Fusion: fusion})
			return Point{Nodes: c.Nodes, Value: ms(r.TimePerIter)}
		}
	}
	series := make([]SeriesDef, len(fusionStrategies))
	for i, f := range fusionStrategies {
		name := "Strategy" + f
		if f == "none" {
			name = "Baseline"
		}
		series[i] = SeriesDef{name, cell(f)}
	}
	return &Scenario{
		Name: id, Title: fmt.Sprintf("Kernel fusion, 768^3, ODF-%d", odf),
		App: "jacobi3d", Machine: "summit", Kind: KindFigure,
		XLabel: "nodes", YLabel: "time/iter (ms)",
		Axis:   nodeAxis(1, 128),
		Series: series,
	}
}

// fig9Scenario measures the speedup from CUDA graphs under each fusion
// strategy: speedup = t(no graphs) / t(graphs). Each cell runs its
// base/graphed pair back to back so the ratio is self-contained.
func fig9Scenario(id string, odf int) *Scenario {
	cell := func(fusion string) CellFn {
		return func(c *Cell) Point {
			p := app.Params{Global: fusionGlobal, ODF: odf, Fusion: fusion}
			base := c.Run("charm-d", p)
			p.Graphs = true
			graphed := c.Run("charm-d", p)
			speedup := float64(base.TimePerIter) / float64(graphed.TimePerIter)
			return Point{Nodes: c.Nodes, Value: speedup}
		}
	}
	series := make([]SeriesDef, len(fusionStrategies))
	for i, f := range fusionStrategies {
		name := "Fusion" + f
		if f == "none" {
			name = "NoFusion"
		}
		series[i] = SeriesDef{name, cell(f)}
	}
	return &Scenario{
		Name: id, Title: fmt.Sprintf("CUDA-graph speedup vs fusion, 768^3, ODF-%d", odf),
		App: "jacobi3d", Machine: "summit", Kind: KindFigure,
		XLabel: "nodes", YLabel: "speedup (x)",
		Axis:   nodeAxis(1, 128),
		Series: series,
	}
}
