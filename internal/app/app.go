// Package app defines the application dimension of the experiment
// layer: a registry of workloads that run on any simulated machine.
// An App exposes named runtime/communication variants (e.g. Jacobi3D's
// mpi-h/mpi-d/charm-h/charm-d) and builds self-contained run closures,
// so the scenario layer (internal/bench) can compose any registered
// application with any machine profile and sweep axis without either
// side knowing the other's internals.
package app

import (
	"fmt"
	"sort"
	"strings"

	"gat/internal/machine"
	"gat/internal/sim"
)

// Params carries the per-run knobs shared across applications. Apps
// interpret only the fields that apply to them (a molecular-dynamics
// proxy has no global grid; an MPI variant has no ODF) and must
// document which fields they consume.
type Params struct {
	// Global is the global problem size for grid-shaped apps.
	Global [3]int
	// ODF is the overdecomposition factor (tasks per PE) for
	// task-based runtimes.
	ODF int
	// Warmup and Iters are the untimed and timed iteration counts;
	// zero selects the app's defaults.
	Warmup, Iters int
	// Fusion names a kernel-fusion strategy ("", "none", "A", "B",
	// "C") for apps that support fused (un)packing kernels.
	Fusion string
	// Graphs executes each iteration's kernel DAG as a pre-captured
	// executable device graph.
	Graphs bool
	// Unoptimized disables the runtime's tuned defaults (for Jacobi3D,
	// the §III-C synchronization/stream optimizations) — the "before"
	// series of optimization comparisons.
	Unoptimized bool
	// FlatPriority disables high-priority communication streams.
	FlatPriority bool
	// Overlap enables manual interior/exterior overlap in bulk-
	// synchronous variants.
	Overlap bool
	// Residual, when positive, adds a global convergence/conservation
	// check every that many iterations.
	Residual int
}

// Metrics is the outcome of one application run (machine.Metrics).
type Metrics = machine.Metrics

// App is one registered workload.
type App interface {
	// Name is the registry key (lower-case, stable).
	Name() string
	// Variants lists the runtime/communication variants, in canonical
	// order.
	Variants() []string
	// Defaults returns sensible parameters for a run on nodes nodes —
	// the problem size generic scenarios sweep with.
	Defaults(nodes int) Params
	// BuildRun binds one run of the given variant to machine m and
	// returns the closure that executes it. The machine must be fresh:
	// a run owns its engine. Unknown variants and unusable parameters
	// return an error.
	BuildRun(m *machine.Machine, variant string, p Params) (func() Metrics, error)
}

// Bounded is an App whose runs can stop early: an ODF search needs a
// candidate's metrics only if its TimePerIter beats the best so far.
type Bounded interface {
	App
	// BuildBoundedRun is BuildRun for a run that matters only if its
	// TimePerIter comes out below bound (> 0). The closure stops the
	// simulation once the run cannot and then returns false with no
	// metrics; a run that finishes below bound returns BuildRun's
	// metrics, event count included, and true. A variant that cannot
	// stop early returns an error.
	BuildBoundedRun(m *machine.Machine, variant string, p Params, bound sim.Time) (func() (Metrics, bool), error)
}

// BuildBoundedRun binds one bounded run of a (see Bounded). An app
// that cannot stop its runs early refuses the bound with an error.
func BuildBoundedRun(a App, m *machine.Machine, variant string, p Params, bound sim.Time) (func() (Metrics, bool), error) {
	b, ok := a.(Bounded)
	if !ok {
		return nil, fmt.Errorf("app: %s cannot stop a run at a bound", a.Name())
	}
	return b.BuildBoundedRun(m, variant, p, bound)
}

var apps []App

// Register adds an application to the registry; duplicate names are a
// programming error and panic at init time.
func Register(a App) {
	if a.Name() == "" || len(a.Variants()) == 0 {
		panic("app: application needs a name and at least one variant")
	}
	for _, b := range apps {
		if b.Name() == a.Name() {
			panic(fmt.Sprintf("app: duplicate application %q", a.Name()))
		}
	}
	apps = append(apps, a)
}

// Apps returns the registered applications in registration order.
func Apps() []App {
	out := make([]App, len(apps))
	copy(out, apps)
	return out
}

// ByName resolves an application, with an error naming the known apps
// on a miss.
func ByName(name string) (App, error) {
	for _, a := range apps {
		if a.Name() == name {
			return a, nil
		}
	}
	names := make([]string, len(apps))
	for i, a := range apps {
		names[i] = a.Name()
	}
	sort.Strings(names)
	return nil, fmt.Errorf("app: unknown application %q (have: %s)",
		name, strings.Join(names, ", "))
}

// badVariant builds the standard unknown-variant error.
func badVariant(a App, variant string) error {
	return fmt.Errorf("app: %s has no variant %q (have: %s)",
		a.Name(), variant, strings.Join(a.Variants(), ", "))
}
