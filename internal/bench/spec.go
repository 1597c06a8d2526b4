package bench

import (
	"fmt"
	"hash/fnv"
)

// RunSpec is one self-contained simulation point of a figure: a single
// (series, x) cell, carrying everything needed to reproduce it in
// isolation. Every spec builds its own machine and engine when
// executed, so any subset of a plan's specs can run concurrently, in
// any order, and still produce bit-identical points.
type RunSpec struct {
	// Scenario is the registered scenario, which is also the emitted
	// figure id, and Series the line within it.
	Scenario, Series string
	// seriesIdx is Series' position in the plan skeleton.
	seriesIdx int
	// X is the x coordinate: a node count for the scaling figures, an
	// ODF for abl-odf, log2(bytes) for abl-chanapi.
	X int
	// Nodes is the simulated machine size (== X for scaling figures).
	Nodes int
	// Warmup and Iters are the resolved per-run iteration counts.
	Warmup, Iters int
	// Seed is derived from (Scenario, Series, X) and seeds the run's
	// network jitter RNG (active when Options.Jitter > 0), so
	// re-running a spec — alone or in a full sweep — reproduces the
	// same simulation.
	Seed uint64
	// App and Machine name the resolved application (empty for
	// machine-level scenarios) and the machine profile the runs build.
	App, Machine string
	// Jitter is the resolved network-jitter fraction the run simulates
	// under (Options.Jitter at plan time). It is a fingerprint input:
	// the same spec at a different jitter is a different result.
	Jitter float64

	run func() Point
}

// Execute runs the simulation(s) behind the spec on a private engine
// and returns the resulting figure point.
func (s RunSpec) Execute() Point {
	executions.Add(1)
	return s.run()
}

// Name returns a stable human-readable identifier for progress lines.
func (s RunSpec) Name() string {
	return fmt.Sprintf("%s/%s@%d", s.Scenario, s.Series, s.X)
}

// Plan is a figure decomposed into independent runs: the skeleton
// carries the metadata and named (empty) series, Specs the flat run
// list in deterministic order.
type Plan struct {
	Skeleton Figure
	Specs    []RunSpec
}

// Assemble fills the skeleton's series from results, where results[i]
// is the point produced by Specs[i]. Appending in spec order keeps the
// output byte-identical no matter how the runs were scheduled.
func (p Plan) Assemble(results []Point) Figure {
	fig := p.Skeleton
	series := make([]Series, len(fig.Series))
	for i, s := range fig.Series {
		series[i] = Series{Name: s.Name}
	}
	for i, spec := range p.Specs {
		series[spec.seriesIdx].Points = append(series[spec.seriesIdx].Points, results[i])
	}
	fig.Series = series
	return fig
}

// specSeed derives the deterministic per-run seed.
func specSeed(scenario, series string, x int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%d", scenario, series, x)
	return h.Sum64()
}
