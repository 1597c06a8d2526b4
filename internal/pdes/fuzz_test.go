package pdes

import (
	"slices"
	"testing"

	"gat/internal/sim"
)

// fuzzLookahead is the window bound of FuzzPDESOrder's sharded runs.
const fuzzLookahead = 16 * sim.Nanosecond

// fuzzEntry is one line of an LP's delivery log: every field of the
// delivered Message, and the time it was delivered at.
type fuzzEntry struct {
	Now      sim.Time
	At       sim.Time
	Src, Dst int32
	Seq      uint32
	Kind     int32
	Data     int64
}

// fuzzLP is one LP's state: its read position on the program's tape
// and its delivery log.
type fuzzLP struct {
	cursor int
	log    []fuzzEntry
}

// fuzzProgram is a decoded FuzzPDESOrder input. Every LP reads its
// sends from the shared tape with a cursor of its own, so what an LP
// sends depends only on the order its messages reach it.
type fuzzProgram struct {
	lps   int
	posts []Message // At, Dst, Kind and Data of each Post
	tape  []byte
}

// decodeFuzzProgram reads prog as: the LP count (2–6), the Post count
// (1–8), three bytes per Post (LP, time 0–3 ns, and a byte that is the
// kind, 0–255, and modulo 6 the hop budget), then the tape. It reports
// false when prog is too short.
func decodeFuzzProgram(prog []byte) (fuzzProgram, bool) {
	if len(prog) < 2 {
		return fuzzProgram{}, false
	}
	p := fuzzProgram{lps: 2 + int(prog[0]%5)}
	n := 1 + int(prog[1]%8)
	rest := prog[2:]
	if len(rest) < 3*n+1 {
		return fuzzProgram{}, false
	}
	for i := 0; i < n; i++ {
		b := rest[3*i : 3*i+3]
		p.posts = append(p.posts, Message{
			Dst: int32(int(b[0]) % p.lps), At: sim.Time(b[1] % 4),
			Kind: int32(b[2]), Data: int64(b[2] % 6),
		})
	}
	p.tape = rest[3*n:]
	return p, true
}

// next returns the LP's next tape byte.
func (p *fuzzProgram) next(st *fuzzLP) byte {
	b := p.tape[st.cursor%len(p.tape)]
	st.cursor++
	return b
}

// deliver logs m at LP lp and makes the sends the tape asks for: one or
// two, each a zero-delay self-send, a self-send 1–8 ns out, or a send
// to any LP at the lookahead plus 0–8 ns, its kind the tape byte that
// chose it (0–255). Every send carries one hop less of m's budget, so a
// program terminates.
func (p *fuzzProgram) deliver(lp int, st *fuzzLP, now sim.Time, m Message, send func(dst int, delay sim.Time, kind int32, data int64)) {
	st.log = append(st.log, fuzzEntry{Now: now, At: m.At, Src: m.Src, Dst: m.Dst, Seq: m.Seq, Kind: m.Kind, Data: m.Data})
	if m.Data <= 0 {
		return
	}
	n := 1 + int(p.next(st)%2)
	for i := 0; i < n; i++ {
		c := p.next(st)
		kind := int32(c)
		switch c % 3 {
		case 0:
			send(lp, 0, kind, m.Data-1)
		case 1:
			send(lp, 1+sim.Time(c/3%8), kind, m.Data-1)
		default:
			send(int(c/3)%p.lps, fuzzLookahead+sim.Time(p.next(st)%9), kind, m.Data-1)
		}
	}
}

// runPDES runs the program on a Runner with the given shard count and
// shard map (nil: contiguous blocks of LPs).
func (p *fuzzProgram) runPDES(shards int, shardOf func(int) int) ([]fuzzLP, uint64) {
	lps := make([]fuzzLP, p.lps)
	r := MustNew(Config{
		LPs: p.lps, Shards: shards, Lookahead: fuzzLookahead, ShardOf: shardOf,
		Handler: func(ctx *Ctx, m Message) {
			lp := ctx.LP()
			p.deliver(lp, &lps[lp], ctx.Now(), m, ctx.Send)
		},
	})
	for _, m := range p.posts {
		r.Post(int(m.Dst), m.At, m.Kind, m.Data)
	}
	r.Run()
	return lps, r.Stats().Events
}

// runReference runs the program on the reference model: one pending
// list, from which it always delivers the (At, Dst, Src, Seq) minimum.
func (p *fuzzProgram) runReference() ([]fuzzLP, uint64) {
	lps := make([]fuzzLP, p.lps)
	seqs := make([]uint32, p.lps)
	var pending []Message
	for _, m := range p.posts {
		seqs[m.Dst]++
		m.Src, m.Seq = m.Dst, seqs[m.Dst]
		pending = append(pending, m)
	}
	var delivered uint64
	for len(pending) > 0 {
		best := 0
		for i, m := range pending {
			if refBefore(m, pending[best]) {
				best = i
			}
		}
		m := pending[best]
		pending[best] = pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		delivered++
		lp := int(m.Dst)
		p.deliver(lp, &lps[lp], m.At, m, func(dst int, delay sim.Time, kind int32, data int64) {
			seqs[lp]++
			pending = append(pending, Message{
				At: m.At + delay, Src: m.Dst, Dst: int32(dst), Kind: kind, Seq: seqs[lp], Data: data,
			})
		})
	}
	return lps, delivered
}

// refBefore is the reference model's delivery order, (At, Dst, Src,
// Seq), written out apart from the package's msgLess.
func refBefore(a, b Message) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Dst != b.Dst {
		return a.Dst < b.Dst
	}
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	return a.Seq < b.Seq
}

// fuzzPartitions are the partitions FuzzPDESOrder runs each program
// on: 1, 2 and 3 shards of contiguous LP blocks, and 2 and 3 shards
// that deal the LPs out by id modulo the shard count, so that no shard's
// LPs form one range.
var fuzzPartitions = []struct {
	shards  int
	shardOf func(int) int
}{
	{1, nil}, {2, nil}, {3, nil},
	{2, func(lp int) int { return lp % 2 }},
	{3, func(lp int) int { return lp % 3 }},
}

// FuzzPDESOrder runs random LP programs — Posts at colliding instants;
// zero-delay, timed and cross-LP sends of kinds 0–255 per delivery — on
// every fuzzPartitions partition and on a reference model, and checks
// that every LP's delivery log (each message's At, Src, Dst, Seq, Kind
// and Data, and the time it came) and the delivered-message count agree
// across all six.
func FuzzPDESOrder(f *testing.F) {
	// all ties: six LPs posted at t=0 send to LP 0 at exactly the
	// lookahead and to themselves with zero delay
	f.Add([]byte{4, 5, 0, 0, 3, 1, 0, 3, 2, 0, 3, 3, 0, 3, 4, 0, 3, 5, 0, 3, 1, 2, 0, 0, 5, 0})
	// zero-delay chain: every delivery sends itself a zero-delay
	// message and LP 1, on the other shard, one at the lookahead
	f.Add([]byte{0, 0, 0, 1, 5, 1, 0, 5, 0})
	// cross-shard join: LP 3 (same shard as LP 2) and LP 0 (the other
	// shard) both send to LP 2 at t=0+20 and t=1+20; LP 0's t=2 send
	// opens t=22 in LP 2's non-empty inbox at a barrier
	f.Add([]byte{2, 3, 3, 0, 1, 3, 1, 1, 0, 0, 1, 0, 2, 1, 0, 8, 4})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			return // the reference's linear scan per delivery: keep programs short
		}
		p, ok := decodeFuzzProgram(prog)
		if !ok {
			return
		}
		want, wantEvents := p.runReference()
		for _, part := range fuzzPartitions {
			got, events := p.runPDES(part.shards, part.shardOf)
			strided := part.shardOf != nil
			if events != wantEvents {
				t.Errorf("shards=%d strided=%v: %d messages delivered, the reference delivered %d",
					part.shards, strided, events, wantEvents)
			}
			for lp := range want {
				if !slices.Equal(got[lp].log, want[lp].log) {
					t.Fatalf("shards=%d strided=%v: LP %d delivery log diverged from the reference\ngot:  %v\nwant: %v",
						part.shards, strided, lp, got[lp].log, want[lp].log)
				}
			}
		}
	})
}
