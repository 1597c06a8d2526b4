package charm

import (
	"testing"
	"testing/quick"

	"gat/internal/sim"
)

func TestRefineAssignMovesOnlyWhatItMust(t *testing.T) {
	// One overloaded PE; refine must fix it while leaving balanced PEs
	// untouched.
	loads := []sim.Time{100, 100, 10, 10, 10, 10}
	current := []int{0, 0, 1, 1, 2, 2}
	out := RefineAssign(loads, current, 3, 0.05)
	if out[0] == out[1] {
		t.Fatalf("hot elements still share PE: %v", out)
	}
	// The best achievable max bin is 100 (one hot element per bin);
	// refine must reach it without mass migration.
	bl := make([]sim.Time, 3)
	moved := 0
	for i := range out {
		bl[out[i]] += loads[i]
		if out[i] != current[i] {
			moved++
		}
	}
	var maxBin sim.Time
	for _, b := range bl {
		if b > maxBin {
			maxBin = b
		}
	}
	if maxBin != 100 {
		t.Fatalf("max bin = %v after refine, want 100 (assign %v)", maxBin, out)
	}
	if moved > len(loads)/2 {
		t.Fatalf("refine moved %d of %d elements — not locality-preserving", moved, len(loads))
	}
}

func TestRefineAssignBalancedInputUnchanged(t *testing.T) {
	loads := []sim.Time{10, 10, 10, 10}
	current := []int{0, 1, 2, 3}
	out := RefineAssign(loads, current, 4, 0.05)
	for i := range out {
		if out[i] != current[i] {
			t.Fatalf("balanced input was perturbed: %v", out)
		}
	}
}

// Property: RefineAssign never increases the maximum bin load.
func TestRefineAssignNeverWorseProperty(t *testing.T) {
	f := func(raw []uint8, binsRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		bins := int(binsRaw)%6 + 2
		loads := make([]sim.Time, len(raw))
		current := make([]int, len(raw))
		for i, r := range raw {
			loads[i] = sim.Time(r)
			current[i] = i % bins
		}
		maxBin := func(assign []int) sim.Time {
			bl := make([]sim.Time, bins)
			for i, pe := range assign {
				bl[pe] += loads[i]
			}
			var m sim.Time
			for _, b := range bl {
				if b > m {
					m = b
				}
			}
			return m
		}
		out := RefineAssign(loads, current, bins, 0.05)
		for _, pe := range out {
			if pe < 0 || pe >= bins {
				return false
			}
		}
		return maxBin(out) <= maxBin(current)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMigrateMovesElement(t *testing.T) {
	rt := newTestRuntime(2)
	a := NewArray(rt, "blk", [3]int{12, 1, 1}, nil, func(ix Index) any { return nil })
	el := a.Elem(Index{0, 0, 0})
	if el.PE() != 0 {
		t.Fatalf("elem starts on PE %d", el.PE())
	}
	var movedAt sim.Time
	a.Migrate(Index{0, 0, 0}, 7, 1<<20, func() { movedAt = rt.Engine().Now() })
	rt.Engine().Run()
	if el.PE() != 7 {
		t.Fatalf("elem on PE %d after migrate, want 7", el.PE())
	}
	if movedAt <= 0 {
		t.Fatal("migration must take simulated time (state transfer)")
	}
}

func TestMigrateSamePENoop(t *testing.T) {
	rt := newTestRuntime(1)
	a := NewArray(rt, "blk", [3]int{6, 1, 1}, nil, func(ix Index) any { return nil })
	done := false
	a.Migrate(Index{0, 0, 0}, 0, 1<<20, func() { done = true })
	rt.Engine().Run()
	if !done {
		t.Fatal("same-PE migrate should still complete")
	}
}

func TestRebalanceGreedyImprovesImbalance(t *testing.T) {
	rt := newTestRuntime(1) // 6 PEs
	a := NewArray(rt, "blk", [3]int{12, 1, 1}, nil, func(ix Index) any { return nil })
	// Fake a measured imbalance: the two elements on PE 0 are hot.
	for i, el := range a.Elems() {
		if i < 2 {
			el.Busy = 1000
		} else {
			el.Busy = 100
		}
	}
	fired := false
	a.RebalanceGreedy(1<<10).OnFire(rt.Engine(), func() { fired = true })
	rt.Engine().Run()
	if !fired {
		t.Fatal("rebalance did not complete")
	}
	// The two hot elements must no longer share a PE.
	hot0, hot1 := a.Elems()[0].PE(), a.Elems()[1].PE()
	if hot0 == hot1 {
		t.Fatalf("hot elements still share PE %d", hot0)
	}
	// Busy counters reset for the next measurement period.
	for _, el := range a.Elems() {
		if el.Busy != 0 {
			t.Fatal("busy counters not reset after rebalance")
		}
	}
}

func TestRebalanceNoMovesFiresImmediately(t *testing.T) {
	rt := newTestRuntime(1)
	a := NewArray(rt, "blk", [3]int{6, 1, 1}, nil, func(ix Index) any { return nil })
	// Uniform load on an already-balanced mapping: greedy may still
	// permute PEs, so just check the signal fires.
	fired := false
	a.RebalanceGreedy(1<<10).OnFire(rt.Engine(), func() { fired = true })
	rt.Engine().Run()
	if !fired {
		t.Fatal("rebalance signal did not fire")
	}
}
