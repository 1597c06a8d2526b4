package netsim

import (
	"testing"
	"testing/quick"

	"gat/internal/gpu"
	"gat/internal/sim"
)

// testConfig uses round numbers: 1 B/ns NIC and intra-node bandwidth,
// 100ns base latency, 10ns/hop, no NIC overhead.
func testConfig() Config {
	return Config{
		LatencyBase:         100,
		LatencyPerHop:       10,
		InjectionBW:         1e9,
		NICOverhead:         0,
		IntraNodeBW:         1e9,
		IntraNodeLatency:    50,
		GPUDirectOverhead:   5,
		RendezvousThreshold: 1000,
		PodSize:             2,
	}
}

func TestHops(t *testing.T) {
	e := sim.NewEngine()
	n := New(e, testConfig(), 8)
	if h := n.Topology().Hops(3, 3); h != 0 {
		t.Fatalf("same-node hops = %d", h)
	}
	if h := n.Topology().Hops(0, 1); h != 2 { // same pod (pod size 2)
		t.Fatalf("same-pod hops = %d, want 2", h)
	}
	if h := n.Topology().Hops(0, 5); h != 4 {
		t.Fatalf("cross-pod hops = %d, want 4", h)
	}
}

func TestLatency(t *testing.T) {
	e := sim.NewEngine()
	n := New(e, testConfig(), 8)
	if l := n.Latency(0, 1); l != 110 { // base + 1 extra hop
		t.Fatalf("same-pod latency = %v, want 110", l)
	}
	if l := n.Latency(0, 5); l != 130 {
		t.Fatalf("cross-pod latency = %v, want 130", l)
	}
	if l := n.Latency(2, 2); l != 50 {
		t.Fatalf("intra latency = %v, want 50", l)
	}
}

func TestTransferInterNode(t *testing.T) {
	e := sim.NewEngine()
	n := New(e, testConfig(), 4)
	var at sim.Time
	n.Transfer(0, 1, 200, sim.FiredSignal()).OnFire(e, func() { at = e.Now() })
	e.Run()
	// Cut-through: tx 0..200; rx 110..310 overlapping tx.
	if at != 310 {
		t.Fatalf("arrival at %v, want 310", at)
	}
}

func TestTransferIntraNode(t *testing.T) {
	e := sim.NewEngine()
	n := New(e, testConfig(), 4)
	var at sim.Time
	n.Transfer(2, 2, 200, sim.FiredSignal()).OnFire(e, func() { at = e.Now() })
	e.Run()
	// intra pipe: overhead 50 + 200.
	if at != 250 {
		t.Fatalf("intra arrival at %v, want 250", at)
	}
}

func TestNICSerializesSends(t *testing.T) {
	e := sim.NewEngine()
	n := New(e, testConfig(), 4)
	var a1, a2 sim.Time
	n.Transfer(0, 1, 100, sim.FiredSignal()).OnFire(e, func() { a1 = e.Now() })
	n.Transfer(0, 2, 100, sim.FiredSignal()).OnFire(e, func() { a2 = e.Now() })
	e.Run()
	// First: tx 0..100, rx at node1 110..210. Second: tx 100..200
	// (serialized on node0's NIC), cross-pod latency 130, rx at node2
	// 230..330.
	if a1 != 210 {
		t.Fatalf("a1 = %v, want 210", a1)
	}
	if a2 != 330 {
		t.Fatalf("a2 = %v, want 330", a2)
	}
}

func TestTransferGPUDirectEager(t *testing.T) {
	e := sim.NewEngine()
	n := New(e, testConfig(), 4)
	var at sim.Time
	// 500 bytes < rendezvous threshold 1000: no handshake, just
	// GPUDirect overhead 5.
	n.TransferGPUDirect(0, 1, 500, sim.FiredSignal()).OnFire(e, func() { at = e.Now() })
	e.Run()
	// overhead 5, tx 5..505, rx 115..615.
	if at != 615 {
		t.Fatalf("eager GPUDirect arrival at %v, want 615", at)
	}
}

func TestTransferGPUDirectRendezvous(t *testing.T) {
	e := sim.NewEngine()
	n := New(e, testConfig(), 4)
	var at sim.Time
	n.TransferGPUDirect(0, 1, 2000, sim.FiredSignal()).OnFire(e, func() { at = e.Now() })
	e.Run()
	// RTT 220 + overhead 5: tx 225..2225, rx 335..2335.
	if at != 2335 {
		t.Fatalf("rendezvous arrival at %v, want 2335", at)
	}
}

func gpuTestConfig() gpu.Config {
	return gpu.Config{
		MemBandwidth:      1e9,
		CopyBandwidth:     1e9,
		CopySetup:         0,
		KernelDispatch:    0,
		GraphNodeDispatch: 0,
	}
}

func TestStagedTransfer(t *testing.T) {
	e := sim.NewEngine()
	n := New(e, testConfig(), 4)
	src := gpu.New(e, "g0", gpuTestConfig())
	dst := gpu.New(e, "g1", gpuTestConfig())
	var at sim.Time
	n.StagedTransfer(src, dst, 0, 1, 100, sim.FiredSignal()).OnFire(e, func() { at = e.Now() })
	e.Run()
	// d2h 0..100, tx 100..200, rx 210..310, h2d 310..410.
	if at != 410 {
		t.Fatalf("staged arrival at %v, want 410", at)
	}
}

func TestPipelinedStagedFasterThanSerialForLargeMsgs(t *testing.T) {
	run := func(pipelined bool) sim.Time {
		e := sim.NewEngine()
		n := New(e, testConfig(), 4)
		src := gpu.New(e, "g0", gpuTestConfig())
		dst := gpu.New(e, "g1", gpuTestConfig())
		var at sim.Time
		var sig *sim.Signal
		if pipelined {
			sig = n.PipelinedStagedTransfer(src, dst, 0, 1, 10000, 1000, sim.FiredSignal())
		} else {
			sig = n.StagedTransfer(src, dst, 0, 1, 10000, sim.FiredSignal())
		}
		sig.OnFire(e, func() { at = e.Now() })
		e.Run()
		return at
	}
	serial, piped := run(false), run(true)
	if piped >= serial {
		t.Fatalf("pipelined (%v) should beat serial staging (%v) for large messages", piped, serial)
	}
}

func TestPipelinedStagedSlowerThanGPUDirect(t *testing.T) {
	// The Spectrum-MPI pipelined fallback must lose to true GPUDirect —
	// the root cause of the MPI-D flattening in Fig 7a. The per-chunk
	// protocol overhead is what tips the balance.
	cfg := testConfig()
	cfg.PipelineChunkOverhead = 500
	e := sim.NewEngine()
	n := New(e, cfg, 4)
	src := gpu.New(e, "g0", gpuTestConfig())
	dst := gpu.New(e, "g1", gpuTestConfig())
	var pipedAt, directAt sim.Time
	n.PipelinedStagedTransfer(src, dst, 0, 1, 10000, 1000, sim.FiredSignal()).
		OnFire(e, func() { pipedAt = e.Now() })
	e.Run()
	e2 := sim.NewEngine()
	n2 := New(e2, cfg, 4)
	n2.TransferGPUDirect(0, 1, 10000, sim.FiredSignal()).OnFire(e2, func() { directAt = e2.Now() })
	e2.Run()
	if directAt >= pipedAt {
		t.Fatalf("GPUDirect (%v) should beat pipelined staging (%v)", directAt, pipedAt)
	}
}

// TestAfterHelper checks the delay link PipelinedStagedTransfer and
// comm.MessagingSend put between a signal and the next protocol step.
func TestAfterHelper(t *testing.T) {
	e := sim.NewEngine()
	base := sim.NewSignal()
	var at sim.Time
	e.AfterSignal(base, 50).OnFire(e, func() { at = e.Now() })
	if e.AfterSignal(base, 0) != base {
		t.Fatal("AfterSignal with zero delay should return the input signal")
	}
	e.Schedule(100, func() { base.Fire(e) })
	e.Run()
	if at != 150 {
		t.Fatalf("After fired at %v, want 150", at)
	}
}

func TestPipelinedSmallMessageFallsBack(t *testing.T) {
	e := sim.NewEngine()
	n := New(e, testConfig(), 4)
	src := gpu.New(e, "g0", gpuTestConfig())
	dst := gpu.New(e, "g1", gpuTestConfig())
	var at sim.Time
	// bytes <= chunk: identical to plain staging.
	n.PipelinedStagedTransfer(src, dst, 0, 1, 100, 1000, sim.FiredSignal()).
		OnFire(e, func() { at = e.Now() })
	e.Run()
	if at != 410 {
		t.Fatalf("small pipelined staged at %v, want 410", at)
	}
}

func TestTransferCounters(t *testing.T) {
	e := sim.NewEngine()
	n := New(e, testConfig(), 2)
	n.Transfer(0, 1, 100, sim.FiredSignal())
	n.Transfer(1, 0, 200, sim.FiredSignal())
	e.Run()
	if n.Messages() != 2 || n.BytesMoved() != 300 {
		t.Fatalf("messages=%d bytes=%d, want 2/300", n.Messages(), n.BytesMoved())
	}
}

// TestTransferCountersFireTime is the truncated-run regression test:
// counters must reflect transfers that started, not transfers that
// were merely scheduled behind a ready signal.
func TestTransferCountersFireTime(t *testing.T) {
	e := sim.NewEngine()
	n := New(e, testConfig(), 4)

	// A never-fired ready must contribute nothing, inter- or
	// intra-node.
	n.Transfer(0, 1, 100, sim.NewSignal())
	n.Transfer(2, 2, 50, sim.NewSignal())
	e.Run()
	if n.Messages() != 0 || n.BytesMoved() != 0 {
		t.Fatalf("never-ready transfers counted: messages=%d bytes=%d, want 0/0",
			n.Messages(), n.BytesMoved())
	}

	// A run truncated before the ready fires must not count the
	// pending transfer; resuming past the fire time must.
	late := sim.NewSignal()
	e.Schedule(1000, func() { late.Fire(e) })
	n.Transfer(0, 1, 300, late)
	gated := sim.NewSignal()
	e.Schedule(2000, func() { gated.Fire(e) })
	n.Transfer(1, 1, 70, gated) // intra-node, also gated
	e.RunUntil(500)
	if n.Messages() != 0 || n.BytesMoved() != 0 {
		t.Fatalf("truncated run counted pending transfers: messages=%d bytes=%d",
			n.Messages(), n.BytesMoved())
	}
	e.RunUntil(1500)
	if n.Messages() != 1 || n.BytesMoved() != 300 {
		t.Fatalf("after first fire: messages=%d bytes=%d, want 1/300",
			n.Messages(), n.BytesMoved())
	}
	e.Run()
	if n.Messages() != 2 || n.BytesMoved() != 370 {
		t.Fatalf("after full run: messages=%d bytes=%d, want 2/370",
			n.Messages(), n.BytesMoved())
	}
}

// Property: transfer time is monotonically non-decreasing in message
// size for a quiet network.
func TestTransferMonotoneProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		small, large := int64(a), int64(b)
		if small > large {
			small, large = large, small
		}
		timeFor := func(bytes int64) sim.Time {
			e := sim.NewEngine()
			n := New(e, testConfig(), 4)
			var at sim.Time
			n.Transfer(0, 1, bytes, sim.FiredSignal()).OnFire(e, func() { at = e.Now() })
			e.Run()
			return at
		}
		return timeFor(small) <= timeFor(large)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSummitConfigSanity(t *testing.T) {
	cfg := Summit()
	if cfg.InjectionBW != 23e9 {
		t.Fatalf("Summit injection bandwidth = %v, want 23 GB/s", cfg.InjectionBW)
	}
	if cfg.RendezvousThreshold != 64<<10 {
		t.Fatalf("rendezvous threshold = %d", cfg.RendezvousThreshold)
	}
	e := sim.NewEngine()
	n := New(e, cfg, 512)
	// A 9 MB halo at 23 GB/s should take ~800us wire time.
	var at sim.Time
	n.Transfer(0, 100, 9<<20, sim.FiredSignal()).OnFire(e, func() { at = e.Now() })
	e.Run()
	// 9 MB at 23 GB/s is ~410us of wire time with cut-through.
	if at < 300*sim.Microsecond || at > 600*sim.Microsecond {
		t.Fatalf("9MB transfer took %v, implausible", at)
	}
}
