// Fusion example: strong-scaling survival kit for fine-grained GPU
// tasks — kernel fusion (§III-D1) and CUDA-graph execution (§III-D2)
// on an overdecomposed Jacobi3D at the edge of strong scaling.
//
// Run: go run ./examples/fusion
package main

import (
	"fmt"

	"gat/internal/jacobi"
	"gat/internal/machine"
)

func main() {
	const nodes = 16
	const odf = 8
	cfg := jacobi.Config{Global: [3]int{768, 768, 768}, Warmup: 2, Iters: 8}
	fmt.Printf("Jacobi3D 768^3 on %d nodes, ODF-%d (%d fine-grained chares)\n\n",
		nodes, odf, nodes*6*odf)
	fmt.Printf("%-12s %-8s %14s %10s %12s\n", "fusion", "graphs", "time/iter", "kernels", "vs baseline")

	var base machine.Metrics
	for _, fusion := range []jacobi.Fusion{jacobi.FusionNone, jacobi.FusionA, jacobi.FusionB, jacobi.FusionC} {
		for _, graphs := range []bool{false, true} {
			m := machine.MustNew(machine.Summit(nodes))
			res := jacobi.RunCharm(m, cfg, jacobi.CharmOpts{
				ODF: odf, GPUAware: true, Fusion: fusion, Graphs: graphs, Optimized: true,
			})
			if fusion == jacobi.FusionNone && !graphs {
				base = res
			}
			speedup := float64(base.TimePerIter) / float64(res.TimePerIter)
			fmt.Printf("%-12s %-8v %14v %10d %11.2fx\n",
				fusion, graphs, res.TimePerIter, res.Kernels, speedup)
		}
	}
	fmt.Println("\nFusion cuts kernel-launch overhead; graphs cut the host-side launch")
	fmt.Println("work that dominates when many fine-grained chares share each core.")
}
