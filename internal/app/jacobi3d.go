package app

import (
	"gat/internal/jacobi"
	"gat/internal/machine"
)

// jacobi3D adapts the paper's Jacobi3D proxy (internal/jacobi) to the
// App interface: the four measured runtime/communication variants over
// a shared parameter set. Consumed Params: Global, ODF (charm-*),
// Warmup, Iters, Fusion/Graphs (charm-d), Unoptimized/FlatPriority
// (charm-*), Overlap (mpi-*), Residual.
type jacobi3D struct{}

func init() { Register(jacobi3D{}) }

func (jacobi3D) Name() string { return "jacobi3d" }

// Version is the cache-identity version: bump when the Jacobi cost
// model or decomposition changes simulated results.
func (jacobi3D) Version() int { return 1 }

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
		return func() Metrics { return fromResult(jacobi.RunMPI(m, cfg, mo)) }, nil
	case "charm-h", "charm-d":
		co := jacobi.CharmOpts{
			ODF:           p.ODF,
			GPUAware:      variant == "charm-d",
			Fusion:        fusion,
			Graphs:        p.Graphs,
			FlatPriority:  p.FlatPriority,
			ResidualEvery: p.Residual,
		}
		if !p.Unoptimized {
			co = co.Optimized()
		}
		return func() Metrics { return fromResult(jacobi.RunCharm(m, cfg, co)) }, nil
	default:
		return nil, badVariant(a, variant)
	}
}

func fromResult(r jacobi.Result) Metrics {
	return Metrics{
		TimePerIter:  r.TimePerIter,
		Total:        r.Total,
		Events:       r.Events,
		Kernels:      r.Kernels,
		NetBytes:     r.NetBytes,
		NetMsgs:      r.NetMsgs,
		MaxLinkUtil:  r.MaxLinkUtil,
		MeanLinkUtil: r.MeanLinkUtil,
		Routing:      r.Routing,
	}
}
