package mpi

import (
	"testing"

	"gat/internal/machine"
	"gat/internal/sim"
)

func testWorld(nodes int) *World {
	return NewWorld(machine.MustNew(machine.Summit(nodes)), DefaultOptions())
}

func TestSendRecvBasic(t *testing.T) {
	w := testWorld(1)
	var recvAt sim.Time
	w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Wait(r.Isend(1, 42, 1024, Host))
		case 1:
			r.Wait(r.Irecv(0, 42, Host))
			recvAt = r.Engine().Now()
		}
	})
	if recvAt == 0 {
		t.Fatal("receive never completed")
	}
}

func TestTagMatchingSeparatesMessages(t *testing.T) {
	w := testWorld(1)
	var order []int
	w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			// Send tag 2 first, then tag 1 — receiver waits on tag 1
			// first and must still get the right message.
			r.Isend(1, 2, 1<<20, Host)
			r.Isend(1, 1, 64, Host)
		case 1:
			r.Wait(r.Irecv(0, 1, Host))
			order = append(order, 1)
			r.Wait(r.Irecv(0, 2, Host))
			order = append(order, 2)
		}
	})
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v", order)
	}
}

func TestSameTagFIFO(t *testing.T) {
	w := testWorld(1)
	completions := 0
	w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			a := r.Isend(1, 7, 100, Host)
			b := r.Isend(1, 7, 100, Host)
			r.Waitall(a, b)
		case 1:
			a := r.Irecv(0, 7, Host)
			b := r.Irecv(0, 7, Host)
			r.Waitall(a, b)
			completions = 2
		}
	})
	if completions != 2 {
		t.Fatal("same-tag FIFO matching failed")
	}
}

func TestWaitallBlocksForAll(t *testing.T) {
	w := testWorld(1)
	var doneAt sim.Time
	w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Compute(100 * sim.Microsecond) // delay one send
			r.Isend(1, 1, 64, Host)
			r.Isend(1, 2, 64, Host)
		case 1:
			a := r.Irecv(0, 1, Host)
			b := r.Irecv(0, 2, Host)
			r.Waitall(a, b)
			doneAt = r.Engine().Now()
		}
	})
	if doneAt < 100*sim.Microsecond {
		t.Fatalf("waitall returned at %v, before delayed send", doneAt)
	}
}

func TestDeviceSmallUsesGPUDirect(t *testing.T) {
	// A small device-buffer message must not touch the GPU DMA engines
	// (GPUDirect goes NIC<->GPU directly).
	w := testWorld(2)
	w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Wait(r.Isend(6, 1, 64<<10, Device)) // rank 6 = node 1
		case 6:
			r.Wait(r.Irecv(0, 1, Device))
		}
	})
	if got := w.M.GPUOf(0).CopiesIssued(); got != 0 {
		t.Fatalf("GPUDirect send issued %d DMA copies, want 0", got)
	}
}

func TestDeviceLargeUsesPipelinedStaging(t *testing.T) {
	// At/above the pipeline threshold the library stages through host
	// memory, which shows up as DMA traffic on both GPUs.
	w := testWorld(2)
	w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Wait(r.Isend(6, 1, 9<<20, Device))
		case 6:
			r.Wait(r.Irecv(0, 1, Device))
		}
	})
	if got := w.M.GPUOf(0).CopiesIssued(); got == 0 {
		t.Fatal("pipelined staging should issue D2H copies on the sender")
	}
	if got := w.M.GPUOf(6).CopiesIssued(); got == 0 {
		t.Fatal("pipelined staging should issue H2D copies on the receiver")
	}
}

func TestDeviceIntraNodeStaysDirect(t *testing.T) {
	// Intra-node device messages use the peer path regardless of size.
	w := testWorld(1)
	w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Wait(r.Isend(1, 1, 9<<20, Device))
		case 1:
			r.Wait(r.Irecv(0, 1, Device))
		}
	})
	if got := w.M.GPUOf(0).CopiesIssued(); got != 0 {
		t.Fatalf("intra-node device transfer issued %d copies, want 0", got)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	w := testWorld(2) // 12 ranks
	arrive := make([]sim.Time, 12)
	depart := make([]sim.Time, 12)
	w.Run(func(r *Rank) {
		// Stagger arrivals.
		r.Compute(sim.Time(r.ID()) * 10 * sim.Microsecond)
		arrive[r.ID()] = r.Engine().Now()
		r.Barrier(1) // one epoch shared by all ranks
		depart[r.ID()] = r.Engine().Now()
	})
	var maxArrive sim.Time
	for _, a := range arrive {
		if a > maxArrive {
			maxArrive = a
		}
	}
	for i, d := range depart {
		if d < maxArrive {
			t.Fatalf("rank %d left barrier at %v, before last arrival %v", i, d, maxArrive)
		}
	}
}

func TestBarrierSharedEpoch(t *testing.T) {
	// All ranks must use the same epoch; a distinct epoch per rank would
	// deadlock. Verify the documented usage pattern works twice in a row.
	w := testWorld(1)
	finished := 0
	w.Run(func(r *Rank) {
		r.Barrier(1)
		r.Barrier(2)
		finished++
	})
	if finished != 6 {
		t.Fatalf("finished = %d, want 6", finished)
	}
}

func TestAllreduceCompletes(t *testing.T) {
	for _, ranks := range []int{1, 2} { // 6 and 12 ranks (non-pow2)
		w := testWorld(ranks)
		done := 0
		w.Run(func(r *Rank) {
			r.Allreduce(1, 8)
			done++
		})
		if done != w.Size() {
			t.Fatalf("nodes=%d: %d ranks completed, want %d", ranks, done, w.Size())
		}
	}
}

func TestRankTopologyAccessors(t *testing.T) {
	w := testWorld(2)
	w.Run(func(r *Rank) {
		if r.Node() != r.ID()/6 {
			t.Errorf("rank %d reports node %d", r.ID(), r.Node())
		}
		if r.GPU() == nil {
			t.Errorf("rank %d has no GPU", r.ID())
		}
	})
}

func TestComputeAdvancesClock(t *testing.T) {
	w := testWorld(1)
	var at sim.Time
	w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Compute(5 * sim.Millisecond)
			at = r.Engine().Now()
		}
	})
	if at != 5*sim.Millisecond {
		t.Fatalf("compute ended at %v", at)
	}
}

// TestRequestReread waits on a request twice and lists a request twice
// in one Waitall, on both sides of a message. Each must complete without
// hanging: a request whose signal fired reads completed however often
// it is read.
func TestRequestReread(t *testing.T) {
	for _, c := range []struct {
		name string
		wait func(r *Rank, req Request)
	}{
		{"wait-twice", func(r *Rank, req Request) { r.Wait(req); r.Wait(req) }},
		{"waitall-duplicate", func(r *Rank, req Request) { r.Waitall(req, req) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := testWorld(1)
			finished := 0
			w.Run(func(r *Rank) {
				var req Request
				switch r.ID() {
				case 0:
					req = r.Isend(1, 1, 64, Host)
				case 1:
					req = r.Irecv(0, 1, Host)
				default:
					finished++
					return
				}
				c.wait(r, req)
				if !req.Fired() {
					t.Errorf("rank %d: request reads pending after its wait", r.ID())
				}
				finished++
			})
			if finished != w.Size() {
				t.Fatalf("%d of %d ranks finished; the rest hang", finished, w.Size())
			}
		})
	}
}

// TestRequestReadAfterReuse keeps a completed request while the record
// of its completion signal serves the next message: the old request
// must still read completed, and waiting on it, alone or beside the
// new one, must not hang. In the gatcheck build no record is reused,
// and the reads must hold all the same.
func TestRequestReadAfterReuse(t *testing.T) {
	w := testWorld(1)
	var first, second [2]*sim.Signal // live signals of each rank's two requests
	finished := 0
	w.Run(func(r *Rank) {
		id := r.ID()
		if id > 1 {
			finished++
			return
		}
		post := func(tag int) Request {
			if id == 0 {
				return r.Isend(1, tag, 64, Host)
			}
			return r.Irecv(0, tag, Host)
		}
		a := post(1)
		first[id] = a.Signal()
		r.Wait(a)
		b := post(2)
		second[id] = b.Signal()
		if !a.Fired() || b.Fired() {
			t.Errorf("rank %d: old request fired=%v, new fired=%v; want true, false", id, a.Fired(), b.Fired())
		}
		r.Wait(a)
		r.Waitall(a, b)
		if !a.Fired() || !b.Fired() {
			t.Errorf("rank %d: after Waitall old fired=%v, new fired=%v; want both", id, a.Fired(), b.Fired())
		}
		finished++
	})
	if finished != w.Size() {
		t.Fatalf("%d of %d ranks finished; the rest hang", finished, w.Size())
	}
	if sim.Recycles {
		// The two completions return both records to the engine's free
		// list, and the next two requests take them back.
		if !(second[0] == first[0] && second[1] == first[1] || second[0] == first[1] && second[1] == first[0]) {
			t.Fatal("the second message's requests did not reuse the first's records")
		}
	}
}
