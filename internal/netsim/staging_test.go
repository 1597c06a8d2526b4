package netsim

import (
	"testing"

	"gat/internal/gpu"
	"gat/internal/sim"
)

// stagedChain runs msgs host-staged transfers back to back — each
// issued only when the previous one has landed, the way MPI-H issues
// halos as matches complete while the engine runs — and returns the
// devices for pool inspection.
func stagedChain(msgs int) (src, dst *gpu.Device) {
	e := sim.NewEngine()
	n := New(e, testConfig(), 4)
	src = gpu.New(e, "g0", gpuTestConfig())
	dst = gpu.New(e, "g1", gpuTestConfig())
	remaining := msgs
	var next func()
	next = func() {
		remaining--
		done := n.StagedTransfer(src, dst, 0, 1, 100, sim.FiredSignal())
		if remaining > 0 {
			done.OnFire(e, next)
		}
	}
	next()
	e.Run()
	return src, dst
}

// TestStagedTransferReusesStreams pins the free-list behavior: a long
// sequential chain of staged messages — the MPI-H halo pattern — must
// not grow the per-device stream population with the message count.
func TestStagedTransferReusesStreams(t *testing.T) {
	src, dst := stagedChain(100)
	if got := src.PooledStreams(); got > 2 {
		t.Errorf("source device pooled %d staging streams after 100 sequential messages, want <= 2", got)
	}
	if got := dst.PooledStreams(); got > 2 {
		t.Errorf("destination device pooled %d staging streams after 100 sequential messages, want <= 2", got)
	}
}

// TestStagedTransferAllocs is the allocs/op regression gate for the
// staging hot path (every MPI-H halo message): amortized allocations
// per message must stay small — in particular, no per-message stream
// construction (one stream costs ~4 allocations: struct, completeFn
// closure, op chunk, pool slot).
func TestStagedTransferAllocs(t *testing.T) {
	if !sim.Recycles {
		t.Skip("the gatcheck build allocates every record afresh")
	}
	perMsg := func(msgs int) float64 {
		return testing.AllocsPerRun(3, func() { stagedChain(msgs) })
	}
	const extra = 400
	base, grown := perMsg(10), perMsg(10+extra)
	marginal := (grown - base) / extra
	// Each staged message legitimately allocates a handful of signals
	// and events; two fresh streams per message would add ~8 on top.
	if marginal > 7 {
		t.Fatalf("staged transfer allocates %.1f allocs/message (marginal), want <= 7 — staging streams are not being reused", marginal)
	}
}

// TestPipelinedStagedReuse covers the pipelined path's acquire
// ordering: src and dst streams must be distinct even when the pool
// could satisfy both, and chunks must still serialize correctly.
func TestPipelinedStagedReuse(t *testing.T) {
	e := sim.NewEngine()
	n := New(e, testConfig(), 4)
	src := gpu.New(e, "g0", gpuTestConfig())
	dst := gpu.New(e, "g1", gpuTestConfig())
	var first, second sim.Time
	done := n.PipelinedStagedTransfer(src, dst, 0, 1, 10000, 1000, sim.FiredSignal())
	done.OnFire(e, func() { first = e.Now() })
	e.Run()
	// Second message after the first drained: streams come from the
	// pool and the timeline matches a fresh-stream run of equal shape.
	n.PipelinedStagedTransfer(src, dst, 0, 1, 10000, 1000, sim.FiredSignal()).
		OnFire(e, func() { second = e.Now() })
	e.Run()
	if first == 0 || second == 0 {
		t.Fatal("pipelined transfers did not complete")
	}
	if got := second - first; got != first {
		t.Fatalf("pooled rerun took %v, fresh run took %v — stream reuse changed the timeline", got, first)
	}
}
