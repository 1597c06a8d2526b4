// Jacobi3D example: the paper's proxy application, all four variants
// side by side on a small cluster — the quick version of Fig 7.
//
// Run: go run ./examples/jacobi3d
package main

import (
	"fmt"

	"gat/internal/jacobi"
	"gat/internal/machine"
)

func main() {
	const nodes = 4
	cfg := jacobi.Config{Global: [3]int{768, 768, 1536}, Warmup: 2, Iters: 8}
	fmt.Printf("Jacobi3D on %d simulated Summit nodes, %dx%dx%d grid\n\n",
		nodes, cfg.Global[0], cfg.Global[1], cfg.Global[2])

	type row struct {
		name string
		run  func(m *machine.Machine) machine.Metrics
	}
	rows := []row{
		{"MPI-H   (host staging)", func(m *machine.Machine) machine.Metrics {
			return jacobi.RunMPI(m, cfg, jacobi.MPIOpts{})
		}},
		{"MPI-D   (CUDA-aware)", func(m *machine.Machine) machine.Metrics {
			return jacobi.RunMPI(m, cfg, jacobi.MPIOpts{Device: true})
		}},
		{"Charm-H (tasks + host staging)", func(m *machine.Machine) machine.Metrics {
			return jacobi.RunCharm(m, cfg, jacobi.CharmOpts{ODF: 4, Optimized: true})
		}},
		{"Charm-D (tasks + GPU-aware)", func(m *machine.Machine) machine.Metrics {
			return jacobi.RunCharm(m, cfg, jacobi.CharmOpts{ODF: 2, GPUAware: true, Optimized: true})
		}},
	}

	var base machine.Metrics
	for i, r := range rows {
		m := machine.MustNew(machine.Summit(nodes))
		res := r.run(m)
		if i == 0 {
			base = res
		}
		speedup := float64(base.TimePerIter) / float64(res.TimePerIter)
		fmt.Printf("  %-32s %10v/iter   %.2fx vs MPI-H\n", r.name, res.TimePerIter, speedup)
	}
	fmt.Println("\nCharm-D combines automatic overlap with GPUDirect-style transfers,")
	fmt.Println("the configuration the paper scales to 3,072 GPUs (§IV-C).")
}
