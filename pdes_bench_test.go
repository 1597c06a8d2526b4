// Parallel-in-run benchmarks: the conservative PDES layer's hot paths.
//
// BenchmarkPDESWindowMerge measures the cross-shard machinery itself —
// a ping chain that crosses the shard boundary every hop, so every
// window executes the full barrier cycle: outbox collection, the
// deterministic (time, source, seq) merge sort, sorted injection and
// the inbox drain. BenchmarkJacobiStepSharded is the end-to-end
// counterpart of BenchmarkJacobiStep for the LP-model path: one timed
// exascale-model iteration across 64 dragonfly nodes on 4 shards.
//
// make bench records both into BENCH_PR12.json alongside the engine
// benchmarks.
package gat

import (
	"testing"

	"gat/internal/jacobi"
	"gat/internal/machine"
	"gat/internal/pdes"
	"gat/internal/sim"
)

// BenchmarkPDESWindowMerge drives one message back and forth between
// two LPs pinned to different shards, with the delay exactly at the
// lookahead so each hop lands in the next window. Per op: one window
// barrier — collect, sort, inject, drain — the fixed cost every
// cross-shard message pays.
func BenchmarkPDESWindowMerge(b *testing.B) {
	const lookahead = 100 * sim.Nanosecond
	hops := b.N
	r := pdes.MustNew(pdes.Config{
		LPs: 2, Shards: 2, Lookahead: lookahead,
		Handler: func(ctx *pdes.Ctx, m pdes.Message) {
			if m.Data <= 0 {
				return
			}
			ctx.Send(1-ctx.LP(), lookahead, 0, m.Data-1)
		},
	})
	r.Post(0, 0, 0, int64(hops))
	b.ReportAllocs()
	b.ResetTimer()
	r.Run()
}

// BenchmarkJacobiStepSharded measures one timed iteration of the
// exascale LP model (64 perlmutter-dragonfly nodes = 4 switch groups,
// 4 shards, overlapped schedule). b.N is spread over runs of
// exaBenchIters iterations, mirroring BenchmarkJacobiStep's sweep
// shape: one short-lived run per data point.
func BenchmarkJacobiStepSharded(b *testing.B) {
	const exaBenchIters = 128
	const nodes = 64
	p, err := machine.ProfileByName("perlmutter-dragonfly")
	if err != nil {
		b.Fatal(err)
	}
	cfg := p.Build(nodes)
	opts := jacobi.ExaOpts{Shards: 4, Overlap: true}
	b.ReportAllocs()
	b.ResetTimer()
	for n := b.N; n > 0; n -= exaBenchIters {
		iters := exaBenchIters
		if n < iters {
			iters = n
		}
		jc := jacobi.Config{
			Global: jacobi.WeakGlobal([3]int{96, 96, 96}, nodes),
			Warmup: 1, Iters: iters,
		}
		jacobi.RunExa(cfg, jc, opts)
	}
}
