package gpu

import (
	"runtime"
	"testing"

	"gat/internal/sim"
)

// chainWorkload enqueues the same mix on s — a gate, a kernel, a copy
// and a graph per round, one round every 1000ns from now — chaining
// each operation's signal to an engine signal, and records when each of
// those fires, relative to the start.
func chainWorkload(e *sim.Engine, s *Stream, rounds int) []sim.Time {
	g := NewGraph()
	a := g.AddKernel("a", 5)
	g.AddKernel("b", 7, a)
	g.AddKernel("c", 3, a)
	t0 := e.Now()
	var fired []sim.Time
	for r := 0; r < rounds; r++ {
		e.Schedule(sim.Time(1000*r), func() {
			gate := e.NewSignal()
			e.FireAt(e.Now()+3, gate)
			outs := []*sim.Signal{e.NewSignal(), e.NewSignal(), e.NewSignal()}
			for _, out := range outs {
				out.OnFire(e, func() { fired = append(fired, e.Now()-t0) })
			}
			s.WaitSignal(gate)
			s.Kernel("k", 10).Chain(e, outs[0])
			s.Copy(H2D, 200).Chain(e, outs[1])
			s.Launch(g).Chain(e, outs[2])
		})
	}
	e.Run()
	return fired
}

// TestStreamReuseMatchesFreshDevice checks that recycled stream ops
// behave like fresh ones: a second run of the workload on the same
// stream, drawing only ops the first run recycled, fires every signal
// at the same offsets through the same number of events.
func TestStreamReuseMatchesFreshDevice(t *testing.T) {
	e, d := newTestDevice()
	s := d.NewStream("s", PriorityNormal)
	fresh := chainWorkload(e, s, 20)
	events, pooled := e.EventsExecuted(), d.freeOps.Len()
	reused := chainWorkload(e, s, 20)
	if len(fresh) != 60 || len(reused) != len(fresh) {
		t.Fatalf("fired %d and %d signals, want 60 each", len(fresh), len(reused))
	}
	for i := range fresh {
		if reused[i] != fresh[i] {
			t.Fatalf("signal %d fired at +%v on recycled ops, +%v on fresh ones", i, reused[i], fresh[i])
		}
	}
	if got := e.EventsExecuted() - events; got != events {
		t.Fatalf("recycled run ran %d events, fresh run %d", got, events)
	}
	if got := d.freeOps.Len(); sim.Recycles && got != pooled {
		t.Fatalf("free list holds %d ops after the recycled run, %d after the fresh one: the rerun allocated ops", got, pooled)
	}
}

// TestChainOpsRecycle checks that every op returns to the device's free
// list as it completes, so a long run reuses a handful of op records.
func TestChainOpsRecycle(t *testing.T) {
	if !sim.Recycles {
		t.Skip("the gatcheck build allocates every record afresh")
	}
	e, d := newTestDevice()
	chainWorkload(e, d.NewStream("s", PriorityNormal), 200)
	// Each round queues four ops and drains before the next begins.
	if got := d.freeOps.Len(); got != 4 {
		t.Fatalf("free list holds %d ops after 200 rounds, want the 4 of one round", got)
	}
}

// TestGraphRelaunchReusesInstance checks that relaunching a graph reuses
// its finished instance record.
func TestGraphRelaunchReusesInstance(t *testing.T) {
	e, d := newTestDevice()
	s := d.NewStream("s", PriorityNormal)
	g := NewGraph()
	root := g.AddKernel("a", 5)
	g.AddKernel("b", 5, root)
	g.AddKernel("c", 5, root)
	for i := 0; i < 50; i++ {
		s.Launch(g)
	}
	e.Run()
	if len(g.free) != 1 {
		t.Fatalf("graph pooled %d instances after 50 sequential launches, want 1", len(g.free))
	}
	if got := d.KernelsLaunched(); got != 150 {
		t.Fatalf("ran %d kernels, want 150", got)
	}
}

// TestCopySteadyStateAllocs checks that stream copies, interleaved
// with graph launches, stop allocating once warm: the stream op, the
// graph instance and the copy engine's transfer record are all recycled
// on completion.
func TestCopySteadyStateAllocs(t *testing.T) {
	if !sim.Recycles {
		t.Skip("the gatcheck build allocates every record afresh")
	}
	const warmup, measured, perBatch = 64, 256, 64
	e, d := newTestDevice()
	s := d.NewStream("s", PriorityNormal)
	g := NewGraph()
	g.AddKernel("k2", 5, g.AddKernel("k", 5))
	outs := make([]sim.Signal, 2*perBatch)
	batch := func() {
		for i := 0; i < perBatch; i++ {
			outs[2*i], outs[2*i+1] = sim.Signal{}, sim.Signal{}
			s.Copy(H2D, 4096).Chain(e, &outs[2*i])
			s.Launch(g).Chain(e, &outs[2*i+1])
		}
		e.Run()
	}
	for i := 0; i < warmup; i++ {
		batch()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < measured; i++ {
		batch()
	}
	runtime.ReadMemStats(&after)
	if want := uint64((warmup + measured) * perBatch); d.CopiesIssued() != want {
		t.Fatalf("issued %d copies, want %d", d.CopiesIssued(), want)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("%d batches of %d copies and graph launches allocated %d bytes after warm-up, want <= 64 KiB", measured, perBatch, got)
	}
}
