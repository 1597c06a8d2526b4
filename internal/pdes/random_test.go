package pdes

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"gat/internal/sim"
)

// This file is the lane_test.go order-equivalence pattern generalized
// to partitions: a randomized workload mixing zero-delay self-traffic,
// timed self-traffic and cross-LP (hence potentially cross-shard)
// traffic is run serial and at several shard counts, and the per-LP
// delivery sequences must match exactly. Each LP owns a private seeded
// RNG — handler invocation order per LP is the thing under test, so
// the RNG stream an LP consumes is identical across partitions iff
// delivery order is.

const (
	randLPs       = 12
	randLookahead = 64 * sim.Nanosecond
	randKinds     = 3
)

// randLP is one LP's private state: its RNG and its delivery log.
type randLP struct {
	rng *rand.Rand
	log []string
}

// runRandom executes the randomized workload on k shards, with LPs in
// contiguous blocks or, if strided, dealt out by id modulo k, and
// returns the per-LP delivery logs plus run stats. The handler's
// behavior is a function of LP state and message only — never of the
// partition — so any divergence between partitions is a delivery-order
// bug.
func runRandom(seed int64, k int, strided bool) ([]string, Stats) {
	lps := make([]randLP, randLPs)
	for i := range lps {
		lps[i].rng = rand.New(rand.NewSource(seed + int64(i)))
	}
	var shardOf func(int) int
	if strided {
		shardOf = func(lp int) int { return lp % k }
	}
	r := MustNew(Config{
		LPs: randLPs, Shards: k, Lookahead: randLookahead, ShardOf: shardOf,
		Handler: func(ctx *Ctx, m Message) {
			lp := &lps[ctx.LP()]
			lp.log = append(lp.log, fmt.Sprintf("t=%d src=%d seq=%d kind=%d data=%d",
				ctx.Now(), m.Src, m.Seq, m.Kind, m.Data))
			if m.Data <= 0 {
				return
			}
			// Fan out a random mixture; Data is the remaining hop budget,
			// split so total traffic stays bounded.
			n := 1 + lp.rng.Intn(2)
			for i := 0; i < n; i++ {
				budget := int64(lp.rng.Intn(int(m.Data))) // < m.Data: strictly decreasing
				switch lp.rng.Intn(3) {
				case 0: // zero-delay self-message (the engine's lane path)
					ctx.Send(ctx.LP(), 0, int32(lp.rng.Intn(randKinds)), budget)
				case 1: // timed self-message below the lookahead
					ctx.Send(ctx.LP(), sim.Time(1+lp.rng.Intn(int(randLookahead))), int32(lp.rng.Intn(randKinds)), budget)
				default: // cross-LP: delay >= lookahead, so it is legal
					// under every partition tested
					dst := lp.rng.Intn(randLPs)
					ctx.Send(dst, randLookahead+sim.Time(lp.rng.Intn(200)), int32(lp.rng.Intn(randKinds)), budget)
				}
			}
		},
	})
	for lp := 0; lp < randLPs; lp++ {
		r.Post(lp, sim.Time(lp%5), 0, 6)
	}
	r.Run()
	out := make([]string, randLPs)
	for i := range lps {
		out[i] = strings.Join(lps[i].log, "\n")
	}
	return out, r.Stats()
}

// TestRandomWorkloadShardEquivalence cross-checks sharded against
// serial delivery order over several seeds and partitions: contiguous
// blocks at 2, 3 and 4 shards, including a K that does not divide the
// LP count, and LPs dealt out by id modulo 2 and 3, so that no shard's
// LPs form one range.
func TestRandomWorkloadShardEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		serial, serialStats := runRandom(seed, 1, false)
		if serialStats.Events < randLPs {
			t.Fatalf("seed %d: workload barely ran (%d events)", seed, serialStats.Events)
		}
		for _, part := range []struct {
			k       int
			strided bool
		}{{2, false}, {3, false}, {4, false}, {2, true}, {3, true}} {
			k := part.k
			sharded, st := runRandom(seed, k, part.strided)
			if st.Shards != k {
				t.Fatalf("seed %d: wanted %d shards, got %d", seed, k, st.Shards)
			}
			if st.Events != serialStats.Events {
				t.Errorf("seed %d k=%d strided=%v: event count diverged: %d vs serial %d",
					seed, k, part.strided, st.Events, serialStats.Events)
			}
			for lp := range sharded {
				if sharded[lp] != serial[lp] {
					t.Fatalf("seed %d k=%d strided=%v: LP %d delivery order diverged\n--- serial ---\n%s\n--- k=%d ---\n%s",
						seed, k, part.strided, lp, serial[lp], k, sharded[lp])
				}
			}
		}
	}
}
