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
// identical at K ∈ {1, 2, 4} on a multi-group dragonfly, for both
// schedules.
func TestExaShardEquality(t *testing.T) {
	cfg := exaCfg(t, "perlmutter-dragonfly", 96) // 6 groups of 16
	jc := Config{Global: WeakGlobal([3]int{64, 64, 64}, 96), Warmup: 1, Iters: 3}
	for _, overlap := range []bool{false, true} {
		serial := RunExa(cfg, jc, ExaOpts{Shards: 1, Overlap: overlap})
		if serial.TimePerIter <= 0 || serial.NetMsgs == 0 {
			t.Fatalf("overlap=%v: degenerate serial result %+v", overlap, serial)
		}
		for _, k := range []int{2, 4} {
			sharded := RunExa(cfg, jc, ExaOpts{Shards: k, Overlap: overlap})
			if figureOf(sharded) != figureOf(serial) {
				t.Errorf("overlap=%v shards=%d: result diverged\nserial:  %+v\nsharded: %+v",
					overlap, k, figureOf(serial), figureOf(sharded))
			}
			if sharded.Shards != k {
				t.Errorf("overlap=%v: effective shards = %d, want %d", overlap, sharded.Shards, k)
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
// inboxes and the halo links live in slabs, so a whole run
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
// node: inboxes with their slots, node records, halo links and the
// engine's buckets together. A 4,096-node run (one shard, overlapped
// schedule) must allocate fewer than 410 bytes per node (400 on Go
// 1.24); with 32-byte slots in a slab of their own, 8-byte links and
// per-node traffic counters it took 510, and with 40-byte messages,
// 24-byte links and per-node copies of the shape constants about 800.
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
