package mpi

import (
	"testing"

	"gat/internal/machine"
	"gat/internal/sim"
)

func TestCollectivesSingleRankFastPath(t *testing.T) {
	cfg := machine.Summit(1)
	cfg.GPUsPerNode = 1
	w := NewWorld(machine.MustNew(cfg), DefaultOptions())
	if w.Size() != 1 {
		t.Fatalf("size = %d, want 1", w.Size())
	}
	done := false
	w.Run(func(r *Rank) {
		r.Barrier(1)
		r.Allreduce(2, 8)
		done = true
	})
	if !done {
		t.Fatal("single-rank collectives did not complete")
	}
}

func TestJacobiResidualOptionRuns(t *testing.T) {
	// The residual allreduce must add time, not hang.
	w := testWorld(1)
	var withAt sim.Time
	w.Run(func(r *Rank) {
		r.Compute(10 * sim.Microsecond)
		r.Allreduce(1, 8)
		withAt = r.Engine().Now()
	})
	if withAt <= 10*sim.Microsecond {
		t.Fatalf("allreduce added no time: %v", withAt)
	}
}
