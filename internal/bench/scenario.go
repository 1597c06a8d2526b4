package bench

import (
	"fmt"
	"sort"
	"strings"

	"gat/internal/app"
	"gat/internal/machine"
	"gat/internal/sim"
)

// This file is the experiment layer's composition seam: a Scenario
// picks one registered application (internal/app), one machine profile
// (internal/machine), a sweep axis and a set of series, and compiles
// them into a Plan of independent RunSpecs. The paper's figures, the
// ablations and every new workload/machine combination are all
// registered scenarios; cmd/sweep resolves them by name and can
// override the machine (and, for app-generic scenarios, the
// application) without touching this package.

// Kind groups scenarios for listing and for the classic -fig aliases.
type Kind int

// Scenario kinds.
const (
	// KindFigure marks reproductions of the paper's figures
	// (-fig all).
	KindFigure Kind = iota
	// KindAblation marks the repo's ablations (-fig ablations).
	KindAblation
	// KindExtra marks scenarios beyond the paper's evaluation.
	KindExtra
)

func (k Kind) String() string {
	switch k {
	case KindFigure:
		return "figure"
	case KindAblation:
		return "ablation"
	case KindExtra:
		return "extra"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// AxisPoint is one position on a scenario's sweep axis: the x
// coordinate and the machine size simulated there. For scaling
// scenarios they coincide; for e.g. an ODF or message-size sweep the
// node count is fixed while x varies.
type AxisPoint struct {
	X, Nodes int
}

// CellFn measures one (series, x) cell and returns its figure point.
// It may run the application several times (an ODF search, a
// with/without ratio). Each Cell.Run simulates on a fresh machine or,
// inside a sweep, returns the metrics of an identical earlier
// simulation, so the runs stay independent and deterministic.
type CellFn func(c *Cell) Point

// SeriesDef is one line of a scenario: its column name and the cell
// measurement.
type SeriesDef struct {
	Name string
	Cell CellFn
}

// Scenario composes application x machine x variant-series x sweep
// axis into a figure-shaped experiment.
type Scenario struct {
	// Name is the registry key and the emitted figure id.
	Name string
	// Title is the figure title. TitleFor, when set, derives it from
	// the options instead (for titles that name the resolved scale).
	Title    string
	TitleFor func(opt Options) string
	// App is the default application (an internal/app registry name);
	// empty for machine-level scenarios that bypass the app layer.
	App string
	// Machine is the default machine profile (an internal/machine
	// registry name).
	Machine string
	// Kind groups the scenario for listings and -fig aliases.
	Kind Kind
	// XLabel and YLabel are the axis captions.
	XLabel, YLabel string
	// Axis returns the sweep positions, honoring opt.MaxNodes.
	Axis func(opt Options) []AxisPoint
	// Series are the fixed lines of the scenario, in column order.
	Series []SeriesDef
	// SeriesFor, when set, derives the series from the resolved
	// application instead of Series — such scenarios accept an app
	// override.
	SeriesFor func(a app.App) []SeriesDef
	// Undersized, when set, returns a one-line note naming the size the
	// scenario needs when opt runs it on the resolved profile below
	// that size — a machine inside one pod for a taper sweep, a run that
	// ends before the first rebalance — and "" otherwise. Such a sweep
	// still runs; its figure just reads flat.
	Undersized func(opt Options, prof machine.Profile) string
}

// SizeWarning returns the scenario's Undersized note under opt and ov,
// prefixed with its name, or "" when it has none.
func (s *Scenario) SizeWarning(opt Options, ov Overrides) string {
	if s.Undersized == nil {
		return ""
	}
	name := s.Machine
	if ov.Machine != "" {
		name = ov.Machine
	}
	prof, err := machine.ProfileByName(name)
	if err != nil {
		return "" // Plan reports the bad profile
	}
	if msg := s.Undersized(opt, prof); msg != "" {
		return s.Name + ": " + msg
	}
	return ""
}

// Overrides re-targets a scenario at resolve time.
type Overrides struct {
	// Machine selects a registered machine profile, replacing the
	// scenario's default.
	Machine string
	// App replaces the application for scenarios that derive their
	// series from the app (SeriesFor); fixed-series scenarios reject
	// it with an error.
	App string
}

// Cell is the execution context a CellFn measures in: the axis
// position, the per-cell seed, and constructors for fresh machines and
// application runs on the scenario's (possibly overridden) profile and
// app.
type Cell struct {
	// X is the x coordinate; Nodes the machine size.
	X, Nodes int
	// Seed is the cell's deterministic seed (shared by every run the
	// cell performs: they are alternatives for one data point).
	Seed uint64

	opt     Options
	profile machine.Profile
	app     app.App
	name    string // Scenario/Series@X, for error messages
}

// NewMachine builds a fresh machine on the cell's profile at the
// cell's node count, wired to the sweep's jitter options, for the
// app-less scenarios that drive the machine themselves. mutate (when
// non-nil) runs on the built profile config first, as in RunWith. The
// mutated config is validated by machine.MustNew, so an impossible
// mutation fails loudly at the cell, not deep in a run.
func (c *Cell) NewMachine(mutate func(*machine.Config)) *machine.Machine {
	return machine.MustNew(c.config(mutate))
}

// Config builds the cell's machine configuration — profile at the
// cell's node count, jitter wired — without instantiating the cluster.
// Cells that consume the configuration as a cost model only (the
// LP-level exascale runs, which never build per-node NICs and GPUs)
// use this instead of NewMachine.
func (c *Cell) Config() machine.Config { return c.config(nil) }

// config is Config with mutate (when non-nil) applied.
func (c *Cell) config(mutate func(*machine.Config)) machine.Config {
	cfg := c.profile.Build(c.Nodes)
	cfg.Net.JitterFrac = c.opt.Jitter
	cfg.Net.JitterSeed = c.Seed
	if mutate != nil {
		mutate(&cfg)
	}
	return cfg
}

// Shards returns the sweep's parallel-in-run shard count, always >= 1.
// Cells that honor it must produce identical points at every value
// (the pdes layer guarantees this for LP-model runs); it never enters
// the run fingerprint.
func (c *Cell) Shards() int {
	if c.opt.Shards > 1 {
		return c.opt.Shards
	}
	return 1
}

// Iterations returns the sweep's warmup/iters overrides, zero meaning
// "use the workload's default". App-backed cells get this resolution
// through Run; app-less cells consult it directly.
func (c *Cell) Iterations() (warmup, iters int) {
	return c.opt.Warmup, c.opt.Iters
}

// Defaults returns the resolved application's default parameters at
// the cell's node count.
func (c *Cell) Defaults() app.Params { return c.app.Defaults(c.Nodes) }

// Run executes one application run of the given variant on a fresh
// machine: RunWith without a machine hook.
func (c *Cell) Run(variant string, p app.Params) app.Metrics {
	return c.RunWith(nil, variant, p)
}

// RunWith executes one application run of the given variant on a fresh
// machine whose profile config mutate (when non-nil) edits first. It
// is how sweep axes that are machine properties — the fabric taper and
// routing policy of the congestion scenarios — vary per cell without
// registering one profile per axis point. Non-zero sweep options
// override the given Warmup/Iters (so -iters/-warmup always win, even
// over app defaults); fields left zero fall through to the app's own
// defaults.
//
// Within one sweep (Options.WithMemo), a run whose full input — app
// name, variant, the parameters after those overrides, and the
// mutated machine configuration as a machine.Key — equals an earlier
// run's returns that run's metrics without building a machine.
func (c *Cell) RunWith(mutate func(*machine.Config), variant string, p app.Params) app.Metrics {
	r, _ := c.run(mutate, variant, p, 0)
	return r
}

// runBounded is Run for a run that matters only if its TimePerIter
// comes out below bound (> 0), as an ODF candidate that must beat the
// best so far (app.Bounded). It reports false when the run cannot: the
// simulation stopped at its deadline, or the memo holds a run of the
// same input stopped at a bound of at least bound. A true result
// carries full metrics, which may still not beat bound when they come
// from the memo.
func (c *Cell) runBounded(variant string, p app.Params, bound sim.Time) (app.Metrics, bool) {
	return c.run(nil, variant, p, bound)
}

// run is RunWith under an optional bound (runBounded; 0 for none).
func (c *Cell) run(mutate func(*machine.Config), variant string, p app.Params, bound sim.Time) (app.Metrics, bool) {
	if c.app == nil {
		panic(fmt.Sprintf("bench: cell %s belongs to an app-less scenario; use NewMachine", c.name))
	}
	if c.opt.Warmup != 0 {
		p.Warmup = c.opt.Warmup
	}
	if c.opt.Iters != 0 {
		p.Iters = c.opt.Iters
	}
	cfg := c.config(mutate)
	k := memoKey{app: c.app.Name(), variant: variant, params: p, machine: cfg.Key()}
	if r, ok, hit := c.opt.memo.get(k, bound); hit {
		return r, ok
	}
	run, err := c.build(machine.MustNew(cfg), variant, p, bound)
	if err != nil {
		panic(fmt.Sprintf("bench: cell %s: %v", c.name, err))
	}
	r, ok := run()
	c.opt.memo.put(k, r, ok, bound)
	return r, ok
}

// build binds one run of the cell's app on m, bounded when bound > 0.
func (c *Cell) build(m *machine.Machine, variant string, p app.Params, bound sim.Time) (func() (app.Metrics, bool), error) {
	if bound > 0 {
		return app.BuildBoundedRun(c.app, m, variant, p, bound)
	}
	run, err := c.app.BuildRun(m, variant, p)
	if err != nil {
		return nil, err
	}
	return func() (app.Metrics, bool) { return run(), true }, nil
}

// Plan compiles the scenario into a flat run plan under the given
// options and overrides.
func (s *Scenario) Plan(opt Options, ov Overrides) (Plan, error) {
	profName := s.Machine
	if ov.Machine != "" {
		profName = ov.Machine
	}
	prof, err := machine.ProfileByName(profName)
	if err != nil {
		return Plan{}, fmt.Errorf("scenario %q: %w", s.Name, err)
	}

	appName := s.App
	if ov.App != "" {
		if s.SeriesFor == nil {
			return Plan{}, fmt.Errorf("scenario %q is fixed to app %q; only app-generic scenarios (e.g. %q) accept -app",
				s.Name, s.App, "scaling")
		}
		appName = ov.App
	}
	var a app.App
	if appName != "" {
		if a, err = app.ByName(appName); err != nil {
			return Plan{}, fmt.Errorf("scenario %q: %w", s.Name, err)
		}
	}

	series := s.Series
	if s.SeriesFor != nil {
		series = s.SeriesFor(a)
	}
	if len(series) == 0 {
		return Plan{}, fmt.Errorf("scenario %q: no series", s.Name)
	}
	title := s.Title
	if s.TitleFor != nil {
		title = s.TitleFor(opt)
	}
	skel := Figure{ID: s.Name, Title: title, XLabel: s.XLabel, YLabel: s.YLabel, Series: make([]Series, len(series))}
	for i, sd := range series {
		skel.Series[i] = Series{Name: sd.Name}
	}
	var specs []RunSpec
	for _, ap := range s.Axis(opt) {
		// Resolved per-run iteration counts: sweep options win, then the
		// app's defaults (zero for app-less scenarios, which run none).
		warmup, iters := opt.Warmup, opt.Iters
		if a != nil {
			d := a.Defaults(ap.Nodes)
			if warmup == 0 {
				warmup = d.Warmup
			}
			if iters == 0 {
				iters = d.Iters
			}
		}
		for si, sd := range series {
			spec := RunSpec{
				Scenario:  s.Name,
				Series:    sd.Name,
				seriesIdx: si,
				X:         ap.X,
				Nodes:     ap.Nodes,
				Warmup:    warmup,
				Iters:     iters,
				Seed:      specSeed(s.Name, sd.Name, ap.X),
				App:       appName,
				Machine:   profName,
				Jitter:    opt.Jitter,
			}
			spec.run = func() Point {
				return sd.Cell(&Cell{X: ap.X, Nodes: ap.Nodes, Seed: spec.Seed,
					opt: opt, profile: prof, app: a, name: spec.Name()})
			}
			specs = append(specs, spec)
		}
	}
	return Plan{Skeleton: skel, Specs: specs}, nil
}

// --- registry ---

var scenarios []*Scenario

// RegisterScenario adds a scenario to the global registry. Duplicate
// or malformed registrations are programming errors and panic at init
// time.
func RegisterScenario(s *Scenario) {
	switch {
	case s.Name == "":
		panic("bench: scenario needs a name")
	case s.Axis == nil:
		panic(fmt.Sprintf("bench: scenario %q needs a sweep axis", s.Name))
	case len(s.Series) == 0 && s.SeriesFor == nil:
		panic(fmt.Sprintf("bench: scenario %q needs series", s.Name))
	case s.SeriesFor != nil && s.App == "":
		panic(fmt.Sprintf("bench: scenario %q derives series from its app and so needs a default App", s.Name))
	case s.Machine == "":
		panic(fmt.Sprintf("bench: scenario %q needs a machine profile", s.Name))
	}
	for _, t := range scenarios {
		if t.Name == s.Name {
			panic(fmt.Sprintf("bench: duplicate scenario %q", s.Name))
		}
	}
	scenarios = append(scenarios, s)
}

// Scenarios returns all registered scenarios in registration order
// (paper figures, then ablations, then extras).
func Scenarios() []*Scenario {
	out := make([]*Scenario, len(scenarios))
	copy(out, scenarios)
	return out
}

// ScenarioByName resolves a scenario, with an error naming the known
// scenarios on a miss.
func ScenarioByName(name string) (*Scenario, error) {
	for _, s := range scenarios {
		if s.Name == name {
			return s, nil
		}
	}
	names := make([]string, len(scenarios))
	for i, s := range scenarios {
		names[i] = s.Name
	}
	sort.Strings(names)
	return nil, fmt.Errorf("bench: unknown scenario %q (have: %s)",
		name, strings.Join(names, ", "))
}

// PlanScenario resolves name and compiles its plan under opt and ov.
func PlanScenario(name string, opt Options, ov Overrides) (Plan, error) {
	s, err := ScenarioByName(name)
	if err != nil {
		return Plan{}, err
	}
	return s.Plan(opt, ov)
}

// nodeAxis is the standard geometric node sweep [lo..hi] where the x
// coordinate is the machine size.
func nodeAxis(lo, hi int) func(opt Options) []AxisPoint {
	return func(opt Options) []AxisPoint {
		var pts []AxisPoint
		for _, n := range nodeSweep(lo, hi, opt) {
			pts = append(pts, AxisPoint{X: n, Nodes: n})
		}
		return pts
	}
}

func init() {
	registerFigureScenarios()
	registerAblationScenarios()
	registerExtraScenarios()
}
