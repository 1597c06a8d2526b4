package jacobi

import (
	"runtime"
	"testing"

	"gat/internal/machine"
	"gat/internal/sim"
)

// exaFigure strips ExaResult to its partition-independent fields — the
// ones that may enter figures and tables. Shards/Windows/Lookahead are
// diagnostics and legitimately vary with the partition.
type exaFigure struct {
	TimePerIter, Total int64
	Events             uint64
	NetBytes           int64
	NetMsgs            uint64
}

func figureOf(r ExaResult) exaFigure {
	return exaFigure{
		TimePerIter: int64(r.TimePerIter), Total: int64(r.Total),
		Events: r.Events, NetBytes: r.NetBytes, NetMsgs: r.NetMsgs,
	}
}

func exaCfg(t *testing.T, profile string, nodes int) machine.Config {
	t.Helper()
	p, err := machine.ProfileByName(profile)
	if err != nil {
		t.Fatal(err)
	}
	return p.Build(nodes)
}

// TestExaShardEquality checks the figure-relevant result fields are
// identical at K ∈ {1, 2, 3, 4} on multi-group dragonflies, for both
// schedules: 6 groups of 16 nodes, which 4 shards split 2, 2, 2 and 0,
// and 8 groups, which 3 shards split 3, 3 and 2.
func TestExaShardEquality(t *testing.T) {
	for _, nodes := range []int{96, 128} {
		cfg := exaCfg(t, "perlmutter-dragonfly", nodes)
		jc := Config{Global: WeakGlobal([3]int{64, 64, 64}, nodes), Warmup: 1, Iters: 3}
		for _, overlap := range []bool{false, true} {
			serial := RunExa(cfg, jc, ExaOpts{Shards: 1, Overlap: overlap})
			if serial.TimePerIter <= 0 || serial.NetMsgs == 0 {
				t.Fatalf("%d nodes, overlap=%v: degenerate serial result %+v", nodes, overlap, serial)
			}
			for _, k := range []int{2, 3, 4} {
				sharded := RunExa(cfg, jc, ExaOpts{Shards: k, Overlap: overlap})
				if figureOf(sharded) != figureOf(serial) {
					t.Errorf("%d nodes, overlap=%v shards=%d: result diverged\nserial:  %+v\nsharded: %+v",
						nodes, overlap, k, figureOf(serial), figureOf(sharded))
				}
				if sharded.Shards != k {
					t.Errorf("%d nodes, overlap=%v: effective shards = %d, want %d", nodes, overlap, sharded.Shards, k)
				}
			}
		}
	}
}

// TestExaBackToBack runs RunExa at 16,384, then 1,024, then 16,384
// nodes in one process, on two shards with the overlapped schedule and
// on three with the blocking one, so that each run sets up its LPs on
// the pdes storage the run before kept. Every run must give, field for
// field, the result that a build keeping nothing between runs gave.
func TestExaBackToBack(t *testing.T) {
	if testing.Short() {
		t.Skip("16k-node runs in -short mode")
	}
	for _, c := range []struct {
		shards  int
		overlap bool
		big     ExaResult // 16,384 nodes
		small   ExaResult // 1,024 nodes
	}{
		{2, true,
			ExaResult{TimePerIter: 37880, Total: 227280, Events: 684032, NetBytes: 138915348480, NetMsgs: 471040, Shards: 2, Windows: 18, CrossMessages: 26624, Lookahead: 2400},
			ExaResult{TimePerIter: 37880, Total: 227280, Events: 40832, NetBytes: 8115978240, NetMsgs: 27520, Shards: 2, Windows: 18, CrossMessages: 2304, Lookahead: 2400}},
		{3, false,
			ExaResult{TimePerIter: 43929, Total: 257525, Events: 585728, NetBytes: 138915348480, NetMsgs: 471040, Shards: 3, Windows: 12, CrossMessages: 37504, Lookahead: 2400},
			ExaResult{TimePerIter: 43929, Total: 257525, Events: 34688, NetBytes: 8115978240, NetMsgs: 27520, Shards: 3, Windows: 12, CrossMessages: 3904, Lookahead: 2400}},
	} {
		for i, nodes := range []int{16384, 1024, 16384} {
			cfg := exaCfg(t, "perlmutter-dragonfly", nodes)
			jc := Config{Global: WeakGlobal([3]int{192, 192, 192}, nodes), Warmup: 1, Iters: 5}
			want := c.big
			if nodes == 1024 {
				want = c.small
			}
			if got := RunExa(cfg, jc, ExaOpts{Shards: c.shards, Overlap: c.overlap}); got != want {
				t.Errorf("run %d, %d nodes on %d shards, overlap=%v:\ngot  %+v\nwant %+v",
					i, nodes, c.shards, c.overlap, got, want)
			}
		}
	}
}

// TestExaTenThousandNodes is the scale acceptance test: the model must
// complete at >= 10,000 simulated nodes on perlmutter-dragonfly, with
// the sharded run reproducing the serial result exactly and actually
// windowing.
func TestExaTenThousandNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node run in -short mode")
	}
	const nodes = 10240
	cfg := exaCfg(t, "perlmutter-dragonfly", nodes)
	jc := Config{Global: WeakGlobal([3]int{192, 192, 192}, nodes), Warmup: 1, Iters: 4}
	serial := RunExa(cfg, jc, ExaOpts{Shards: 1, Overlap: true})
	sharded := RunExa(cfg, jc, ExaOpts{Shards: 4, Overlap: true})
	if figureOf(sharded) != figureOf(serial) {
		t.Fatalf("10k-node sharded run diverged\nserial:  %+v\nsharded: %+v",
			figureOf(serial), figureOf(sharded))
	}
	if serial.TimePerIter <= 0 {
		t.Fatalf("degenerate result: %+v", serial)
	}
	if sharded.Shards != 4 || sharded.Windows < 2 || sharded.Lookahead <= 0 {
		t.Fatalf("sharded run did not window: %+v", sharded)
	}
	if sharded.CrossMessages <= uint64(nodes) {
		// Every run merges one Post per node; real cross-shard halo
		// traffic must show on top of that.
		t.Fatalf("no cross-shard traffic crossed the barrier: %+v", sharded)
	}
}

// TestExaTrafficCounts pins RunExa's halo traffic, which it derives
// per node from the shape (face neighbors and halo bytes, once per
// iteration but the last), to the counts the model made when every
// node summed its own sends: exascale-lp's grid at two sizes, one
// warm-up and five timed iterations, both schedules, one and two
// shards.
func TestExaTrafficCounts(t *testing.T) {
	for _, c := range []struct {
		nodes int
		msgs  uint64
		bytes int64
	}{
		{1024, 27520, 8115978240},
		{4096, 115200, 33973862400},
	} {
		cfg := exaCfg(t, "perlmutter-dragonfly", c.nodes)
		jc := Config{Global: WeakGlobal([3]int{192, 192, 192}, c.nodes), Warmup: 1, Iters: 5}
		for _, overlap := range []bool{false, true} {
			for _, k := range []int{1, 2} {
				r := RunExa(cfg, jc, ExaOpts{Shards: k, Overlap: overlap})
				if r.NetMsgs != c.msgs || r.NetBytes != c.bytes {
					t.Errorf("%d nodes, overlap=%v, %d shards: %d messages of %d bytes, want %d of %d",
						c.nodes, overlap, k, r.NetMsgs, r.NetBytes, c.msgs, c.bytes)
				}
			}
		}
	}
}

// TestExaOverlapHelps checks the structural claim the scenario plots:
// overlapping the halo flight with the interior update is never slower
// than the blocking schedule, and strictly faster once the grid spans
// groups.
func TestExaOverlapHelps(t *testing.T) {
	cfg := exaCfg(t, "perlmutter-dragonfly", 128)
	jc := Config{Global: WeakGlobal([3]int{96, 96, 96}, 128), Warmup: 1, Iters: 3}
	blocking := RunExa(cfg, jc, ExaOpts{Overlap: false})
	overlap := RunExa(cfg, jc, ExaOpts{Overlap: true})
	if overlap.TimePerIter >= blocking.TimePerIter {
		t.Fatalf("overlap (%v/iter) not faster than blocking (%v/iter)",
			overlap.TimePerIter, blocking.TimePerIter)
	}
}

// TestExaShardsClampedToGroups: a single-group machine cannot shard
// (no cross-group latency to bound windows) and must degrade to one
// shard rather than panic.
func TestExaShardsClampedToGroups(t *testing.T) {
	cfg := exaCfg(t, "perlmutter-dragonfly", 8) // half of one group
	jc := Config{Global: [3]int{64, 64, 64}, Warmup: 1, Iters: 2}
	r := RunExa(cfg, jc, ExaOpts{Shards: 4})
	if r.Shards != 1 || r.Lookahead != 0 {
		t.Fatalf("single-group run sharded: %+v", r)
	}
}

// TestExaAllocsPerNode guards RunExa against per-node allocation: the
// inboxes and the node records, halo links inside, live in slabs, so a
// whole run
// (one shard, overlapped schedule) allocates fewer times than it has
// nodes. A slice per node, or inboxes outgrowing their slots, breaks
// the bound.
func TestExaAllocsPerNode(t *testing.T) {
	for _, nodes := range []int{1024, 4096} {
		cfg := exaCfg(t, "perlmutter-dragonfly", nodes)
		jc := Config{Global: WeakGlobal([3]int{192, 192, 192}, nodes), Warmup: 1, Iters: 5}
		got := testing.AllocsPerRun(3, func() { RunExa(cfg, jc, ExaOpts{Shards: 1, Overlap: true}) })
		if got >= float64(nodes) {
			t.Errorf("%d nodes: RunExa allocated %.0f times, want fewer than one per node", nodes, got)
		}
	}
}

// TestExaBytesPerNode guards the LP model's footprint per simulated
// node. The measured run follows one of the same size, so it sets up
// its inboxes and queues its posts in the storage pdes kept from that
// run (the inbox's 232 bytes are pinned in pdes); it allocates the node
// records with their halo links and the engine's buckets. A 4,096-node
// run (one shard, overlapped schedule) must allocate fewer than 410
// bytes per node: 164 on Go 1.24, and 424 as the first run in a
// process. Before pdes kept its storage every run took 400; with
// 32-byte slots in a slab of their own, 8-byte links and per-node
// traffic counters 510, and with 40-byte messages, 24-byte links and
// per-node copies of the shape constants about 800.
func TestExaBytesPerNode(t *testing.T) {
	if !sim.Recycles {
		t.Skip("the gatcheck build allocates every record afresh")
	}
	const nodes = 4096
	cfg := exaCfg(t, "perlmutter-dragonfly", nodes)
	jc := Config{Global: WeakGlobal([3]int{192, 192, 192}, nodes), Warmup: 1, Iters: 5}
	run := func() { RunExa(cfg, jc, ExaOpts{Shards: 1, Overlap: true}) }
	run()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	perNode := float64(after.TotalAlloc-before.TotalAlloc) / nodes
	t.Logf("%.1f bytes per node", perNode)
	if perNode >= 410 {
		t.Errorf("RunExa allocated %.0f bytes per node, want fewer than 410", perNode)
	}
}
