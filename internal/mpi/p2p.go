package mpi

import (
	"slices"
	"unsafe"

	"gat/internal/sim"
)

// Isend posts a non-blocking send of bytes to rank dst with the given
// tag. kind selects the buffer location; both sides of a match must
// agree. The request completes when the data has been delivered to the
// receiver's buffer (rendezvous semantics, appropriate for the halo
// sizes Jacobi3D exchanges).
func (r *Rank) Isend(dst, tag int, bytes int64, kind BufKind) Request {
	r.proc.Sleep(r.w.Opt.CallOverhead)
	w := r.w
	done := w.M.Eng.NewSignal()
	req := done.Ref()
	to := w.ranks[dst]
	if pr, ok := take(&to.posted, r.id, tag); ok {
		w.start(r.id, dst, bytes, kind, pr.kind, done, pr.done)
		return req
	}
	to.unexpected = append(to.unexpected, pending{src: r.id, tag: tag, bytes: bytes, kind: kind, done: done})
	return req
}

// Irecv posts a non-blocking receive from rank src with the given tag.
func (r *Rank) Irecv(src, tag int, kind BufKind) Request {
	r.proc.Sleep(r.w.Opt.CallOverhead)
	w := r.w
	done := w.M.Eng.NewSignal()
	req := done.Ref()
	if ps, ok := take(&r.unexpected, src, tag); ok {
		w.start(src, r.id, ps.bytes, ps.kind, kind, ps.done, done)
		return req
	}
	r.posted = append(r.posted, pending{src: src, tag: tag, kind: kind, done: done})
	return req
}

// take removes and returns the oldest operation in *q from src under
// tag, if there is one.
//
//gat:hotpath
func take(q *[]pending, src, tag int) (pending, bool) {
	for i, p := range *q {
		if p.src == src && p.tag == tag {
			*q = slices.Delete(*q, i, i+1)
			return p, true
		}
	}
	return pending{}, false
}

// matchDone links a matched pair's completion: when the transfer has
// arrived, both request signals fire from one event, in
// send-then-receive order — two separate completion events would give
// an interleaving point the real sequence does not have.
type matchDone struct {
	w            *World
	sdone, rdone *sim.Signal
}

// matchDoneFire is the ArgFunc completing a matched send/recv pair; the
// link is recycled as it fires.
//
//gat:hotpath
func matchDoneFire(e *sim.Engine, arg unsafe.Pointer) {
	md := (*matchDone)(arg)
	sdone, rdone := md.sdone, md.rdone
	md.w.links.Put(md)
	sdone.Fire(e)
	rdone.Fire(e)
}

// start launches the matched transfer on the path implied by the buffer
// kinds.
//
//gat:hotpath
func (w *World) start(src, dst int, bytes int64, sendKind, recvKind BufKind, sdone, rdone *sim.Signal) {
	if sendKind != recvKind {
		panic("mpi: mixed host/device buffer match not supported")
	}
	srcNode := w.M.NodeOf(src)
	dstNode := w.M.NodeOf(dst)
	md := w.links.Get()
	md.w, md.sdone, md.rdone = w, sdone, rdone
	var arrived *sim.Signal
	switch {
	case sendKind == Host:
		arrived = w.M.Net.Transfer(srcNode, dstNode, bytes, sim.FiredSignal())
	case bytes >= w.Opt.PipelineThreshold && srcNode != dstNode:
		// Spectrum MPI's large-device-message fallback: chunked
		// staging through pinned host buffers.
		arrived = w.M.Net.PipelinedStagedTransfer(
			w.M.GPUOf(src), w.M.GPUOf(dst),
			srcNode, dstNode, bytes, w.M.Cfg.Net.PipelineChunkSize, sim.FiredSignal())
	default:
		arrived = w.M.Net.TransferGPUDirect(srcNode, dstNode, bytes, sim.FiredSignal())
	}
	arrived.OnFireArg(w.M.Eng, matchDoneFire, unsafe.Pointer(md))
}

// Wait blocks until the request completes.
//
//gat:hotpath
func (r *Rank) Wait(req Request) {
	r.proc.Sleep(r.w.Opt.CallOverhead)
	r.proc.Wait(req.Signal())
}

// Waitall blocks until every request completes, charging a single call
// overhead (MPI_Waitall).
//
//gat:hotpath
func (r *Rank) Waitall(reqs ...Request) {
	r.proc.Sleep(r.w.Opt.CallOverhead)
	r.proc.WaitAll(reqs...)
}
