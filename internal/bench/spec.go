package bench

import (
	"fmt"
	"hash/fnv"

	"gat/internal/app"
)

// RunSpec is one self-contained simulation point of a figure: a single
// (series, x) cell, carrying everything needed to reproduce it in
// isolation. Every spec builds its own machine and engine when
// executed, so any subset of a plan's specs can run concurrently, in
// any order, and still produce bit-identical points.
type RunSpec struct {
	// FigID is the owning figure and Series the line within it.
	FigID  string
	Series string
	// seriesIdx is Series' position in the plan skeleton.
	seriesIdx int
	// X is the x coordinate: a node count for the scaling figures, an
	// ODF for abl-odf, log2(bytes) for abl-chanapi.
	X int
	// Nodes is the simulated machine size (== X for scaling figures).
	Nodes int
	// Warmup and Iters are the resolved per-run iteration counts.
	Warmup, Iters int
	// Seed is derived from (FigID, Series, X) and seeds the run's
	// network jitter RNG (active when Options.Jitter > 0), so
	// re-running a spec — alone or in a full sweep — reproduces the
	// same simulation.
	Seed uint64
	// Scenario, App and Machine name the resolved experiment
	// composition: the registered scenario (== FigID for registered
	// plans), the application (empty for machine-level scenarios) and
	// the machine profile the runs build.
	Scenario, App, Machine string
	// Jitter is the resolved network-jitter fraction the run simulates
	// under (Options.Jitter at plan time). It is a fingerprint input:
	// the same spec at a different jitter is a different result.
	Jitter float64

	// appID, machineID and scenarioID are the versioned identity
	// strings (app.Identity, machine.Profile.Identity,
	// Scenario.Identity) behind App, Machine and Scenario; they enter
	// the fingerprint so bumping an app, profile or scenario version
	// invalidates its cached runs without touching the engine salt.
	// scenarioID equals Scenario while every version is 0, preserving
	// pre-versioned keys.
	appID, machineID, scenarioID string

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
	return fmt.Sprintf("%s/%s@%d", s.FigID, s.Series, s.X)
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
func specSeed(figID, series string, x int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%d", figID, series, x)
	return h.Sum64()
}

// planBuilder accumulates a figure plan. Series must all be declared
// up front so the skeleton's column order is fixed before any spec is
// added.
type planBuilder struct {
	fig   Figure
	opt   Options
	specs []RunSpec
	// scenario/app/machine annotate every spec with the resolved
	// experiment composition (set by Scenario.Plan);
	// scenarioID/appID/machineID are the matching versioned identity
	// strings; appRef is the resolved application, consulted for
	// default iteration counts.
	scenario, app, machine       string
	appID, machineID, scenarioID string
	appRef                       app.App
}

func newPlan(opt Options, id, title, xlabel, ylabel string, seriesNames ...string) *planBuilder {
	series := make([]Series, len(seriesNames))
	for i, n := range seriesNames {
		series[i] = Series{Name: n}
	}
	return &planBuilder{
		opt: opt,
		fig: Figure{ID: id, Title: title, XLabel: xlabel, YLabel: ylabel, Series: series},
	}
}

// add appends one run for series index si at x coordinate x on a
// nodes-node machine. run receives the spec (for its seed) and returns
// the measured point.
func (b *planBuilder) add(si, x, nodes int, run func(RunSpec) Point) {
	// Resolved per-run iteration counts: sweep options win, then the
	// app's defaults (zero for app-less scenarios, which run none).
	warmup, iters := b.opt.Warmup, b.opt.Iters
	if b.appRef != nil {
		d := b.appRef.Defaults(nodes)
		if warmup == 0 {
			warmup = d.Warmup
		}
		if iters == 0 {
			iters = d.Iters
		}
	}
	spec := RunSpec{
		FigID:      b.fig.ID,
		Series:     b.fig.Series[si].Name,
		seriesIdx:  si,
		X:          x,
		Nodes:      nodes,
		Warmup:     warmup,
		Iters:      iters,
		Seed:       specSeed(b.fig.ID, b.fig.Series[si].Name, x),
		Scenario:   b.scenario,
		App:        b.app,
		Machine:    b.machine,
		Jitter:     b.opt.Jitter,
		appID:      b.appID,
		machineID:  b.machineID,
		scenarioID: b.scenarioID,
	}
	spec.run = func() Point { return run(spec) }
	b.specs = append(b.specs, spec)
}

func (b *planBuilder) plan() Plan {
	return Plan{Skeleton: b.fig, Specs: b.specs}
}
