package mpi

import (
	"slices"
	"testing"

	"gat/internal/machine"
	"gat/internal/sim"
)

// matchOp is one step of a rank's FuzzMPIMatch program: a compute gap
// if gap is set, else a host-buffer send to or receive from peer under
// tag. id numbers the rank's requests in posting order.
type matchOp struct {
	gap       sim.Time
	send      bool
	peer, tag int
	bytes     int64
	id        int
}

// matchRanks is the world size FuzzMPIMatch programs run on.
const matchRanks = 3

// decodeMatchProgram turns a fuzz input into one op list per rank, then
// appends the posts that give every send a receive: for each (source,
// destination, tag) in order, the missing receives at the end of the
// destination's list or the missing sends at the end of the source's.
// Every send gets its own size, so no two transfers take the same time.
func decodeMatchProgram(prog []byte) (ops [matchRanks][]matchOp, reqs [matchRanks]int) {
	var balance [matchRanks][matchRanks][4]int // sends minus receives by [src][dst][tag]
	sends := 0
	post := func(rank int, send bool, peer, tag int) {
		op := matchOp{send: send, peer: peer, tag: tag, id: reqs[rank]}
		reqs[rank]++
		if send {
			op.bytes = 64 + 96*int64(sends)
			sends++
			balance[rank][peer][tag]++
		} else {
			balance[peer][rank][tag]--
		}
		ops[rank] = append(ops[rank], op)
	}
	for _, op := range prog {
		rank := int(op>>2&3) % matchRanks
		switch op & 3 {
		case 0, 1:
			peer := (rank + 1 + int(op>>4&1)) % matchRanks
			post(rank, op&3 == 0, peer, int(op>>5&3))
		default:
			ops[rank] = append(ops[rank], matchOp{gap: sim.Time(1+op>>4) * 500 * sim.Nanosecond})
		}
	}
	for src := range balance {
		for dst := range balance[src] {
			for tag, n := range balance[src][dst] {
				for ; n > 0; n-- {
					post(dst, false, src, tag)
				}
				for ; n < 0; n++ {
					post(src, true, dst, tag)
				}
			}
		}
	}
	return ops, reqs
}

// FuzzMPIMatch runs fuzzer-chosen programs of host-buffer Isend and
// Irecv posts and compute gaps on 3 ranks, each rank posting in its own
// order and then waiting on all of its requests, against a reference
// that pairs the k-th send of each (source, destination, tag) with the
// k-th receive. Each pair's two requests must complete at the same
// instant, every request must complete, and every rank's queues must be
// empty at the end.
//
// Each program byte is one op on rank bits 2–3 (3 reads as 0). Bits
// 0–1 pick it: 0 a send and 1 a receive, with the peer the next rank
// or, if bit 4 is set, the one after, and the tag in bits 5–6; 2 and 3
// compute for (1 + bits 4–7) × 500 ns.
func FuzzMPIMatch(f *testing.F) {
	// Rank 1 computes while rank 0 sends twice under one tag: two
	// unexpected sends, taken oldest first.
	f.Add([]byte{0xf6, 0x00, 0x00, 0x15, 0x15})
	// Rank 0 computes while rank 1 posts two receives: two posted
	// receives, taken oldest first.
	f.Add([]byte{0xf2, 0x00, 0x00, 0x15, 0x15})
	// Sends under tags 1 then 0, received under 0 then 1.
	f.Add([]byte{0xf6, 0x20, 0x00, 0x15, 0x35})
	// Ranks 0 and 1 both send to a computing rank 2, which receives from
	// 1 first.
	f.Add([]byte{0xfa, 0x10, 0x04, 0x19, 0x09})
	// Mixed traffic among all three ranks, left for the balancing posts
	// to complete.
	f.Add([]byte{0x00, 0x21, 0x35, 0x16, 0x04, 0x62, 0x19, 0x0a, 0x08, 0x40, 0x45, 0x0d, 0x32, 0x50, 0x71})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 256 {
			return
		}
		ops, reqs := decodeMatchProgram(prog)
		cfg := machine.Summit(matchRanks)
		cfg.GPUsPerNode = 1
		w := NewWorld(machine.MustNew(cfg), DefaultOptions())
		var at [matchRanks][]sim.Time // completion instant by [rank][request id]
		for r, n := range reqs {
			at[r] = slices.Repeat([]sim.Time{-1}, n)
		}
		finished := 0
		w.Run(func(r *Rank) {
			me := r.ID()
			eng := r.Engine()
			var reqs []Request
			for _, op := range ops[me] {
				if op.gap > 0 {
					r.Compute(op.gap)
					continue
				}
				var req Request
				if op.send {
					req = r.Isend(op.peer, op.tag, op.bytes, Host)
				} else {
					req = r.Irecv(op.peer, op.tag, Host)
				}
				id := op.id
				req.Signal().OnFire(eng, func() { at[me][id] = eng.Now() })
				reqs = append(reqs, req)
			}
			r.Waitall(reqs...)
			finished++
		})
		if finished != matchRanks {
			t.Fatalf("%d of %d ranks finished", finished, matchRanks)
		}

		// The reference: the k-th send of each (src, dst, tag) in the
		// source's posting order pairs with the k-th receive in the
		// destination's.
		type key struct{ src, dst, tag, k int }
		type end struct{ rank, id int }
		sendOf := map[key]end{}
		recvOf := map[key]end{}
		var seen [matchRanks][matchRanks][4][2]int
		for r := range ops {
			for _, op := range ops[r] {
				if op.gap > 0 {
					continue
				}
				src, dst, side := r, op.peer, 0
				if !op.send {
					src, dst, side = op.peer, r, 1
				}
				k := key{src, dst, op.tag, seen[src][dst][op.tag][side]}
				seen[src][dst][op.tag][side]++
				if op.send {
					sendOf[k] = end{r, op.id}
				} else {
					recvOf[k] = end{r, op.id}
				}
			}
		}
		if len(sendOf) != len(recvOf) {
			t.Fatalf("the program has %d sends and %d receives", len(sendOf), len(recvOf))
		}
		for k, s := range sendOf {
			rv, ok := recvOf[k]
			if !ok {
				t.Fatalf("send %v has no receive", k)
			}
			ts, tr := at[s.rank][s.id], at[rv.rank][rv.id]
			if ts < 0 || tr < 0 {
				t.Fatalf("send %d from rank %d to %d under tag %d: send completed at %v, receive at %v; want both",
					k.k, k.src, k.dst, k.tag, ts, tr)
			}
			if ts != tr {
				t.Fatalf("send %d from rank %d to %d under tag %d completed at %v, its receive at %v",
					k.k, k.src, k.dst, k.tag, ts, tr)
			}
		}
		for _, r := range w.ranks {
			if len(r.unexpected) != 0 || len(r.posted) != 0 {
				t.Fatalf("rank %d ends with %d unexpected sends and %d posted receives", r.id, len(r.unexpected), len(r.posted))
			}
		}
	})
}
