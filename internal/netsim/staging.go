package netsim

import (
	"gat/internal/gpu"
	"gat/internal/sim"
)

// StagedTransfer models classic host-staging communication of a device
// buffer: a D2H copy on the source GPU, a host-to-host network transfer,
// and an H2D copy on the destination GPU, executed back to back. The
// returned signal fires when the data is resident in destination device
// memory.
//
// The copies go through the GPUs' DMA engines, so they contend with the
// application's own transfers — the effect that makes host staging
// expensive in the paper's Charm-H and MPI-H variants.
//
// Staging streams come from the devices' acquire pools rather than
// being created per message: an idle pooled stream is behaviorally
// identical to a fresh one (empty queue, same gating via the ready/
// arrived signals), so reuse preserves the transfer timeline while
// keeping the per-message hot path allocation-free — every MPI-H halo
// message lands here via mpi.World.start.
func (n *Network) StagedTransfer(srcDev, dstDev *gpu.Device, src, dst int, bytes int64, ready *sim.Signal) *sim.Signal {
	srcStream := srcDev.AcquireStream("stage/d2h", gpu.PriorityHigh)
	srcStream.WaitSignal(ready)
	d2hDone := srcStream.Copy(gpu.D2H, bytes)
	arrived := n.Transfer(src, dst, bytes, d2hDone)
	dstStream := dstDev.AcquireStream("stage/h2d", gpu.PriorityHigh)
	dstStream.WaitSignal(arrived)
	return dstStream.Copy(gpu.H2D, bytes)
}

// PipelinedStagedTransfer models IBM Spectrum MPI's large-device-message
// protocol: the message is split into chunks that are staged through
// pinned host buffers, with the D2H copy, network transfer, and H2D
// copy of different chunks overlapping in a pipeline (Hanford et al.,
// "Challenges of GPU-Aware Communication in MPI"). Each chunk pays its
// own per-transfer overheads, which is why this path loses to true
// GPUDirect for large messages.
func (n *Network) PipelinedStagedTransfer(srcDev, dstDev *gpu.Device, src, dst int, bytes int64, chunk int64, ready *sim.Signal) *sim.Signal {
	if chunk <= 0 {
		panic("netsim: chunk size must be positive")
	}
	if bytes <= chunk {
		return n.StagedTransfer(srcDev, dstDev, src, dst, bytes, ready)
	}
	// The src stream gets its gate op before the dst acquire so the two
	// acquires can never return the same (still idle) stream.
	srcStream := srcDev.AcquireStream("pipe/d2h", gpu.PriorityHigh)
	srcStream.WaitSignal(ready)
	dstStream := dstDev.AcquireStream("pipe/h2d", gpu.PriorityHigh)

	done := n.eng.NewSignal()
	// Stage 1: successive D2H chunk copies are serialized by the stream.
	// Stage 2: each chunk's network transfer starts when its D2H is done
	// (NIC pipe serializes chunks in order). Stage 3: each chunk's H2D
	// waits for its own arrival; the dst stream serializes them.
	for remaining := bytes; remaining > 0; {
		c := chunk
		if remaining < c {
			c = remaining
		}
		remaining -= c
		d2hDone := srcStream.Copy(gpu.D2H, c)
		// Each chunk pays the pipeline protocol overhead before it can
		// be injected — the cost that keeps this path below GPUDirect.
		sendReady := n.eng.AfterSignal(d2hDone, n.cfg.PipelineChunkOverhead)
		arrived := n.Transfer(src, dst, c, sendReady)
		dstStream.WaitSignal(arrived)
		h2dDone := dstStream.Copy(gpu.H2D, c)
		if remaining == 0 {
			h2dDone.Chain(n.eng, done)
		}
	}
	return done
}
