// Quickstart: run a registered scenario through the experiment layer
// and watch overdecomposition hide communication.
//
// The "ring-odf" scenario composes the `ring` app (a ring of
// GPU-accelerated asynchronous tasks, each repeatedly running a kernel
// and passing a device buffer to a partner) with the Summit machine
// profile and an ODF sweep axis. With one task per GPU (ODF-1) the
// communication is exposed; with more tasks per GPU the scheduler
// interleaves them so one task's transfer overlaps another's kernel —
// the paper's core mechanism, through the same scenario API cmd/sweep
// uses. `sweep -list` shows every registered scenario.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	"gat/internal/sweep"
)

func main() {
	fmt.Println("scenario ring-odf: ring of GPU tasks, 2 nodes, halo-like messages")
	res, err := sweep.Sweep([]string{"ring-odf"}, sweep.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fig := res.Figures[0].Figure
	fig.WriteTable(os.Stdout)

	at := func(odf int) float64 {
		for _, p := range fig.Series[0].Points {
			if p.Nodes == odf {
				return p.Value
			}
		}
		return 0
	}
	base, over := at(1), at(4)
	if base == 0 || over == 0 {
		fmt.Fprintln(os.Stderr, "quickstart: scenario missing ODF-1/ODF-4 points")
		os.Exit(1)
	}
	improvement := 100 * (base - over) / base
	fmt.Printf("\noverdecomposition hides communication: ODF-4 is %.1f%% faster than ODF-1\n", improvement)
	if over >= base {
		fmt.Println("(unexpected: no overlap benefit)")
		os.Exit(1)
	}
}
