package wallclock_test

import (
	"testing"

	"gat/internal/analysis/analysistest"
	"gat/internal/analysis/wallclock"
)

func TestWallclock(t *testing.T) {
	diags := analysistest.Run(t, wallclock.Analyzer, "testdata")
	if len(diags) == 0 {
		t.Fatal("testdata produced no findings; the failing direction is untested")
	}
}

// TestScope pins the policy: the engine and sweep packages must stay
// inside the wallclock scope, and host-facing drivers outside it.
func TestScope(t *testing.T) {
	for _, pkg := range []string{
		"gat/internal/sim", "gat/internal/netsim", "gat/internal/gpu",
		"gat/internal/mpi", "gat/internal/charm", "gat/internal/jacobi",
		"gat/internal/jacobi/compute", "gat/internal/app", "gat/internal/machine",
		"gat/internal/bench", "gat/internal/comm",
		"gat/internal/timeline", "gat/internal/sweep", "gat/internal/sweep/store",
	} {
		if !wallclock.Analyzer.AppliesTo(pkg) {
			t.Errorf("engine package %s escaped the wallclock scope", pkg)
		}
	}
	for _, pkg := range []string{"gat/cmd/sweep", "gat/examples/quickstart", "gat/internal/analysis"} {
		if wallclock.Analyzer.AppliesTo(pkg) {
			t.Errorf("host-facing package %s must not be in the wallclock scope", pkg)
		}
	}
}
