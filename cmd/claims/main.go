// Command claims verifies the paper's qualitative claims (C1–C7, listed
// in bench.Claims) against the simulation and prints a PASS/FAIL report.
//
// Usage:
//
//	claims                 # full scale (slow: up to 512 nodes)
//	claims -maxnodes 64    # capped scale (thresholds still apply)
//	claims -maxnodes 2 -smoke   # CI smoke: report all claims, exit 0
//
// With -smoke the exit status stops depending on the verdicts: every
// claim still runs and reports, but a FAIL does not fail the process.
// CI uses this at tiny scale, where the paper's thresholds are not
// expected to hold — the smoke asserts the checks execute, not that
// the shape claims survive a 2-node machine.
package main

import (
	"flag"
	"fmt"
	"os"

	"gat/internal/bench"
)

func main() {
	maxNodes := flag.Int("maxnodes", 0, "cap the node counts used by the checks (0 = paper scale)")
	iters := flag.Int("iters", 0, "timed iterations per run (0 = default 10)")
	smoke := flag.Bool("smoke", false, "report every claim but exit 0 even on FAIL (for reduced-scale CI runs)")
	flag.Parse()
	if err := checkFlags(*maxNodes, *iters); err != nil {
		fmt.Fprintf(os.Stderr, "claims: %v\n", err)
		os.Exit(2)
	}
	opt := bench.Options{MaxNodes: *maxNodes, Iters: *iters}
	ok := bench.CheckClaims(opt, os.Stdout)
	switch {
	case ok:
		fmt.Println("\nall claims PASS")
	case *smoke:
		fmt.Println("\nsome claims FAILED (ignored: -smoke)")
	default:
		fmt.Println("\nsome claims FAILED")
		os.Exit(1)
	}
}

// checkFlags refuses a negative -maxnodes or -iters (0 picks the
// default), naming the flag.
func checkFlags(maxNodes, iters int) error {
	if maxNodes < 0 {
		return fmt.Errorf("bad -maxnodes %d: want 0 (paper scale) or more", maxNodes)
	}
	if iters < 0 {
		return fmt.Errorf("bad -iters %d: want 0 (the default) or more", iters)
	}
	return nil
}
