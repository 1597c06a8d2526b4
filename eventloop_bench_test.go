// Event-loop benchmarks: the simulator's throughput bound is the
// engine event loop, so these measure its hot paths.
//
// BenchmarkEventQueue exercises the engine's timed-event store, a heap
// of same-instant buckets, under the classic "hold" workload (pop the
// earliest event, schedule a replacement a random increment later,
// repeat) at several queue depths and under three arrival
// distributions: uniform increments, bimodal near/far (half the
// replacements land ~1ms out), and all-ties (every event in a
// depth-sized cohort shares one timestamp, so ordering is carried
// entirely by sequence numbers). The distributions bracket the store's
// cost: at depth 64 the uniform and bimodal instants rarely repeat, so
// nearly every push opens a bucket and every pop drains one, while at
// depth 16k uniform instants hold ~16 events each and all-ties holds
// the whole depth in one bucket, whose pushes and pops never touch the
// heap.
// BenchmarkEventQueueContainerHeap runs the uniform workload against a
// binary heap behind the container/heap interface, the engine's first
// queue, so the cost of interface boxing stays visible at every depth.
//
// The remaining benchmarks target the steady-state scheduling paths a
// simulation actually spends its time in: zero-delay self-rescheduling
// (BenchmarkZeroDelayLane), signal fan-out wakeups
// (BenchmarkSignalFanout), proc park/resume round trips
// (BenchmarkProcPingPong), and a full Jacobi3D iteration end to end on
// each runtime (BenchmarkJacobiStep for MPI-D, BenchmarkJacobiStepCharm
// for Charm-D). Run them all with:
//
//	go test -run xxx -bench . -benchmem
//
// make bench records their trajectory into BENCH_PR13.json
// (BENCH_PR2.json, BENCH_PR7.json, BENCH_PR8.json and BENCH_PR12.json
// are kept in-tree as earlier reference points).
package gat

import (
	"container/heap"
	"testing"

	"gat/internal/jacobi"
	"gat/internal/machine"
	"gat/internal/mpi"
	"gat/internal/sim"
)

// holdDepths are the standing queue sizes benchmarked; figure sweeps
// sit in the hundreds-to-thousands range (one event per in-flight
// message, stream op and parked proc).
var holdDepths = []struct {
	name  string
	depth int
}{
	{"depth64", 64},
	{"depth1k", 1024},
	{"depth16k", 16384},
}

func BenchmarkEventQueue(b *testing.B) {
	for _, c := range holdDepths {
		b.Run(c.name, func(b *testing.B) {
			e := sim.NewEngine()
			rng := sim.NewRNG(1)
			var fn func()
			fn = func() {
				e.Schedule(sim.Time(1+rng.Intn(1000)), fn)
			}
			for i := 0; i < c.depth; i++ {
				e.Schedule(sim.Time(1+rng.Intn(1000)), fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			// Each Step pops one event and pushes its replacement.
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}

// BenchmarkEventQueueBimodal is the hold workload with a near/far
// mixture: half the replacements land within 1µs, half ~1ms out — the
// distribution sweeps with long-latency network transfers among dense
// kernel completions produce.
func BenchmarkEventQueueBimodal(b *testing.B) {
	for _, c := range holdDepths {
		b.Run(c.name, func(b *testing.B) {
			e := sim.NewEngine()
			rng := sim.NewRNG(1)
			var fn func()
			fn = func() {
				d := sim.Time(1 + rng.Intn(1000))
				if rng.Intn(2) == 1 {
					d += 1_000_000
				}
				e.Schedule(d, fn)
			}
			for i := 0; i < c.depth; i++ {
				fn()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}

// BenchmarkEventQueueTies is the hold workload where every replacement
// lands exactly one fixed period after the event it replaces, so the
// whole depth-sized cohort shares a single timestamp and ordering is
// carried purely by sequence numbers: the cohort is one bucket, pushed
// at its tail and popped at its head.
func BenchmarkEventQueueTies(b *testing.B) {
	for _, c := range holdDepths {
		b.Run(c.name, func(b *testing.B) {
			e := sim.NewEngine()
			var fn func()
			fn = func() {
				e.Schedule(1000, fn)
			}
			for i := 0; i < c.depth; i++ {
				e.Schedule(1000, fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}

// oldEvent / oldHeap replicate the engine's first event queue: a
// binary min-heap driven through the container/heap interface.
type oldEvent struct {
	at  sim.Time
	seq uint64
	fn  func()
}

type oldHeap []oldEvent

func (h oldHeap) Len() int { return len(h) }
func (h oldHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h oldHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *oldHeap) Push(x any)   { *h = append(*h, x.(oldEvent)) }
func (h *oldHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// BenchmarkZeroDelayLane measures the dominant event class of a real
// simulation: events scheduled with zero delay (signal wakeups, queue
// wakeups, yields, resume thunks). A standing population of 64
// self-rescheduling zero-delay events is stepped one event at a time;
// the virtual clock never advances. The steady state must be 0
// allocs/op.
func BenchmarkZeroDelayLane(b *testing.B) {
	e := sim.NewEngine()
	var fn func()
	fn = func() { e.Schedule(0, fn) }
	for i := 0; i < 64; i++ {
		e.Schedule(0, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkSignalFanout measures one Signal.Fire waking 8 parked procs
// — the completion-broadcast shape of Waitall, barrier rounds, and
// stream drains. Signals are one-shot, so each round uses a fresh
// pre-allocated signal; the per-op cost is the fire, 8 wakeup events,
// and 8 park/resume transfers.
func BenchmarkSignalFanout(b *testing.B) {
	const fanout = 8
	e := sim.NewEngine()
	sigs := make([]*sim.Signal, b.N)
	for i := range sigs {
		sigs[i] = sim.NewSignal()
	}
	for w := 0; w < fanout; w++ {
		e.Spawn("waiter", func(p *sim.Proc) {
			for _, s := range sigs {
				p.Wait(s)
			}
		})
	}
	e.Spawn("driver", func(p *sim.Proc) {
		eng := p.Engine()
		for _, s := range sigs {
			s.Fire(eng)
			p.Yield() // let this round's waiters run and re-park
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkProcPingPong measures one full proc-to-proc round trip: two
// procs exchange a token through two queues, so each op is two queue
// wakeups and two park/resume control transfers. The steady state must
// be 0 allocs/op — this is the path under every blocking MPI call.
func BenchmarkProcPingPong(b *testing.B) {
	e := sim.NewEngine()
	q1, q2 := sim.NewQueue[int](), sim.NewQueue[int]()
	n := b.N
	e.Spawn("ping", func(p *sim.Proc) {
		eng := p.Engine()
		for i := 0; i < n; i++ {
			q1.Push(eng, i)
			q2.Pop(p)
		}
	})
	e.Spawn("pong", func(p *sim.Proc) {
		eng := p.Engine()
		for i := 0; i < n; i++ {
			q1.Pop(p)
			q2.Push(eng, i)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkJacobiStep measures one timed Jacobi3D iteration end to end
// (MPI-D variant, 2 Summit nodes = 12 ranks), the workload every
// figure sweep is made of. b.N is spread over runs of jacobiBenchIters
// iterations on one machine and one world; every transient record,
// requests included, recycles as it completes, so record memory stays
// warm instead of accumulating for the lifetime of the benchmark.
func BenchmarkJacobiStep(b *testing.B) {
	const jacobiBenchIters = 128
	m := machine.MustNew(machine.Summit(2))
	w := mpi.NewWorld(m, mpi.DefaultOptions())
	opts := jacobi.MPIOpts{Device: true}
	b.ReportAllocs()
	b.ResetTimer()
	for n := b.N; n > 0; n -= jacobiBenchIters {
		iters := jacobiBenchIters
		if n < iters {
			iters = n
		}
		cfg := jacobi.Config{Global: [3]int{96, 96, 96}, Warmup: 1, Iters: iters}
		jacobi.RunMPIWorld(w, cfg, opts)
		m.ResetTransients()
	}
}

// BenchmarkJacobiStepCharm is BenchmarkJacobiStep for the Charm-style
// runtime: one timed Jacobi3D iteration of the GPU-aware Charm-D variant
// at ODF 4 on 2 Summit nodes (12 PEs, 48 chares), the task path behind
// most paper figures. Runs reuse one machine, as in
// BenchmarkJacobiStep; each run builds its runtime, chares, streams and
// channels afresh, amortized over jacobiBenchIters iterations.
func BenchmarkJacobiStepCharm(b *testing.B) {
	const jacobiBenchIters = 128
	m := machine.MustNew(machine.Summit(2))
	opts := jacobi.CharmOpts{ODF: 4, GPUAware: true}.Optimized()
	b.ReportAllocs()
	b.ResetTimer()
	for n := b.N; n > 0; n -= jacobiBenchIters {
		iters := jacobiBenchIters
		if n < iters {
			iters = n
		}
		cfg := jacobi.Config{Global: [3]int{96, 96, 96}, Warmup: 1, Iters: iters}
		jacobi.RunCharm(m, cfg, opts)
		m.ResetTransients()
	}
}

func BenchmarkEventQueueContainerHeap(b *testing.B) {
	for _, c := range holdDepths {
		b.Run(c.name, func(b *testing.B) {
			var h oldHeap
			rng := sim.NewRNG(1)
			var now sim.Time
			seq := uint64(0)
			fn := func() {}
			for i := 0; i < c.depth; i++ {
				seq++
				heap.Push(&h, oldEvent{at: sim.Time(1 + rng.Intn(1000)), seq: seq, fn: fn})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := heap.Pop(&h).(oldEvent)
				now = ev.at
				seq++
				heap.Push(&h, oldEvent{at: now + sim.Time(1+rng.Intn(1000)), seq: seq, fn: fn})
			}
		})
	}
}
