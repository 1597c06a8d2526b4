package app

import (
	"fmt"

	"gat/internal/jacobi"
	"gat/internal/machine"
	"gat/internal/sim"
)

// jacobi3D adapts the paper's Jacobi3D proxy (internal/jacobi) to the
// App interface: the four measured runtime/communication variants over
// a shared parameter set. Consumed Params: Global, ODF (charm-*),
// Warmup, Iters, Fusion/Graphs (charm-d), Unoptimized/FlatPriority
// (charm-*), Overlap (mpi-*), Residual.
type jacobi3D struct{}

func init() { Register(jacobi3D{}) }

func (jacobi3D) Name() string { return "jacobi3d" }

func (jacobi3D) Variants() []string {
	return []string{"mpi-h", "mpi-d", "charm-h", "charm-d"}
}

// Defaults weak-scales the paper's small base problem (192^3 per node,
// Fig 7b) with ODF-4, keeping generic cross-machine sweeps fast, at
// the reproduction's standard 3 warm-up + 10 timed iterations.
func (jacobi3D) Defaults(nodes int) Params {
	return Params{
		Global: jacobi.WeakGlobal([3]int{192, 192, 192}, nodes),
		ODF:    4,
		Warmup: 3,
		Iters:  10,
	}
}

func (a jacobi3D) BuildRun(m *machine.Machine, variant string, p Params) (func() Metrics, error) {
	// Parse Fusion for every variant, so a malformed strategy fails
	// even on the MPI variants, which ignore it.
	fusion, err := jacobi.ParseFusion(p.Fusion)
	if err != nil {
		return nil, err
	}
	cfg := jacobi.Config{Global: p.Global, Warmup: p.Warmup, Iters: p.Iters}
	switch variant {
	case "mpi-h", "mpi-d":
		mo := jacobi.MPIOpts{
			Device:        variant == "mpi-d",
			Overlap:       p.Overlap,
			ResidualEvery: p.Residual,
		}
		return func() Metrics { return jacobi.RunMPI(m, cfg, mo) }, nil
	case "charm-h", "charm-d":
		co := charmOpts(variant, p, fusion)
		return func() Metrics { return jacobi.RunCharm(m, cfg, co) }, nil
	default:
		return nil, badVariant(a, variant)
	}
}

// BuildBoundedRun binds a charm-* run that stops once it cannot beat
// bound (jacobi.RunCharmBounded). The MPI variants refuse a bound.
func (a jacobi3D) BuildBoundedRun(m *machine.Machine, variant string, p Params, bound sim.Time) (func() (Metrics, bool), error) {
	fusion, err := jacobi.ParseFusion(p.Fusion)
	if err != nil {
		return nil, err
	}
	switch variant {
	case "charm-h", "charm-d":
	case "mpi-h", "mpi-d":
		return nil, fmt.Errorf("app: %s %s runs cannot stop at a bound", a.Name(), variant)
	default:
		return nil, badVariant(a, variant)
	}
	cfg := jacobi.Config{Global: p.Global, Warmup: p.Warmup, Iters: p.Iters}
	co := charmOpts(variant, p, fusion)
	return func() (Metrics, bool) { return jacobi.RunCharmBounded(m, cfg, co, bound) }, nil
}

// charmOpts maps p onto the options of a charm-* variant's run.
func charmOpts(variant string, p Params, fusion jacobi.Fusion) jacobi.CharmOpts {
	return jacobi.CharmOpts{
		ODF:           p.ODF,
		GPUAware:      variant == "charm-d",
		Fusion:        fusion,
		Graphs:        p.Graphs,
		FlatPriority:  p.FlatPriority,
		ResidualEvery: p.Residual,
		Optimized:     !p.Unoptimized,
	}
}
