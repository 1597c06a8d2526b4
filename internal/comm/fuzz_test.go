package comm

import (
	"testing"
	"unsafe"

	"gat/internal/sim"
)

// matchRecv is one fuzzed receive: its completion's record.
type matchRecv struct {
	f   *matchFuzz
	id  int
	ran int
}

// matchFuzz is the state of one FuzzChannelMatch program: the posts
// made, and a reference that keeps the unmatched posts in one FIFO per
// (destination, tag) key.
type matchFuzz struct {
	t     *testing.T
	sends []*sim.Signal // each send's done signal, by send id
	seen  []bool        // whether a recv completion has claimed the send
	want  []int         // the send each recv must be matched with, or -1
	recvs []*matchRecv

	refSends, refRecvs [2][fuzzTags][]int // ids by [dst is b][tag], oldest first
}

const fuzzTags = 4

// recvDone checks a receive's completion: it runs once, right after the
// event that fired its matched send's done signal, so exactly one send
// has completed since the previous receive completion, and it is the
// send the reference matched.
func recvDone(_ *sim.Engine, arg unsafe.Pointer) {
	r := (*matchRecv)(arg)
	f := r.f
	r.ran++
	if r.ran > 1 {
		f.t.Fatalf("recv %d completed %d times", r.id, r.ran)
	}
	got := -1
	for i, s := range f.sends {
		if !f.seen[i] && s.Fired() {
			if got >= 0 {
				f.t.Fatalf("recv %d: sends %d and %d both completed since the previous recv", r.id, got, i)
			}
			got = i
		}
	}
	if got < 0 {
		f.t.Fatalf("recv %d completed before any unclaimed send did", r.id)
	}
	f.seen[got] = true
	if f.want[r.id] != got {
		f.t.Fatalf("recv %d matched send %d, want send %d", r.id, got, f.want[r.id])
	}
}

// FuzzChannelMatch drives random interleavings of Send and Recv from
// both endpoints over a few tags, with each send's ready signal fired
// before or after its match and engine steps in between, against a
// reference of one FIFO per (destination, tag). It checks which send
// each receive is matched with and that its completion runs right after
// that send's, once, and it checks PendingSends, PendingRecvs and
// MatchKeys after every post and at quiescence.
//
// Each program byte is one op. Bits 0–1 pick it: 0 a send and 1 a
// receive, from endpoint b if bit 2 is set, with the tag in bits 3–4
// and, for a send, an unfired ready signal if bit 5 is set; 2 fires the
// oldest unfired ready signal; 3 runs 1–8 engine steps (bits 2–4). The
// first byte's bit 0 puts both endpoints on one node.
func FuzzChannelMatch(f *testing.F) {
	f.Add([]byte{0, 0x00, 0x01, 0x05, 0x04, 0x1f})
	f.Add([]byte{1, 0x21, 0x08, 0x20, 0x00, 0x01, 0x09, 0x02, 0x0b, 0x02, 0x02, 0x1f})
	f.Add([]byte{0, 0x01, 0x09, 0x11, 0x19, 0x24, 0x2c, 0x34, 0x3c, 0x03, 0x02, 0x02, 0x07})
	f.Add([]byte{0, 0x20, 0x20, 0x25, 0x25, 0x01, 0x01, 0x04, 0x04, 0x02, 0x0f, 0x02})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 || len(prog) > 512 {
			return // the completion check scans every send: keep programs short
		}
		e := sim.NewEngine()
		b := Endpoint{Proc: 1, Node: 1}
		if prog[0]&1 == 1 {
			b.Node = 0
		}
		ch := NewChannel(testNet(e, 2), Endpoint{Proc: 0, Node: 0}, b)
		fz := &matchFuzz{t: t}
		var unfired []*sim.Signal
		check := func(when string) {
			sends, recvs, keys := 0, 0, 0
			for d := range fz.refSends {
				for tag := range fz.refSends[d] {
					sends += len(fz.refSends[d][tag])
					recvs += len(fz.refRecvs[d][tag])
					if len(fz.refSends[d][tag]) > 0 {
						keys++
					}
					if len(fz.refRecvs[d][tag]) > 0 {
						keys++
					}
				}
			}
			if ch.PendingSends() != sends || ch.PendingRecvs() != recvs || ch.MatchKeys() != keys {
				t.Fatalf("%s: %d pending sends, %d pending recvs, %d match keys, want %d, %d, %d",
					when, ch.PendingSends(), ch.PendingRecvs(), ch.MatchKeys(), sends, recvs, keys)
			}
		}
		for _, op := range prog[1:] {
			fromB := op&4 != 0
			tag := int(op >> 3 & (fuzzTags - 1))
			switch op & 3 {
			case 0:
				id := len(fz.sends)
				done := sim.NewSignal()
				fz.sends = append(fz.sends, done)
				fz.seen = append(fz.seen, false)
				ready := sim.FiredSignal()
				if op&0x20 != 0 {
					ready = sim.NewSignal()
					unfired = append(unfired, ready)
				}
				dst := 1
				if fromB {
					dst = 0
				}
				if q := &fz.refRecvs[dst][tag]; len(*q) > 0 {
					fz.want[(*q)[0]] = id
					*q = (*q)[1:]
				} else {
					fz.refSends[dst][tag] = append(fz.refSends[dst][tag], id)
				}
				ch.Send(int(op>>2&1), tag, 8+8*int64(op), ready, done)
				check("after a send")
			case 1:
				r := &matchRecv{f: fz, id: len(fz.recvs)}
				fz.recvs = append(fz.recvs, r)
				fz.want = append(fz.want, -1)
				dst := 0
				if fromB {
					dst = 1
				}
				if q := &fz.refSends[dst][tag]; len(*q) > 0 {
					fz.want[r.id] = (*q)[0]
					*q = (*q)[1:]
				} else {
					fz.refRecvs[dst][tag] = append(fz.refRecvs[dst][tag], r.id)
				}
				ch.Recv(int(op>>2&1), tag, &Completion{Fn: recvDone, Arg: unsafe.Pointer(r)})
				check("after a recv")
			case 2:
				if len(unfired) > 0 {
					unfired[0].Fire(e)
					unfired = unfired[1:]
				}
			case 3:
				for i := 0; i <= int(op>>2&7); i++ {
					e.Step()
				}
			}
		}
		for _, s := range unfired {
			s.Fire(e)
		}
		e.Run()
		check("at quiescence")
		matched := 0
		for _, r := range fz.recvs {
			switch {
			case fz.want[r.id] >= 0 && r.ran != 1:
				t.Fatalf("matched recv %d completed %d times, want once", r.id, r.ran)
			case fz.want[r.id] < 0 && r.ran != 0:
				t.Fatalf("unmatched recv %d completed", r.id)
			}
			if r.ran == 1 {
				matched++
			}
		}
		for i, s := range fz.sends {
			if s.Fired() != fz.seen[i] {
				t.Fatalf("send %d: done fired %v, claimed by a recv %v", i, s.Fired(), fz.seen[i])
			}
		}
		if ch.Completed() != uint64(matched) {
			t.Fatalf("Completed = %d, want %d", ch.Completed(), matched)
		}
	})
}
