package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"testing"
	"time"

	"gat/internal/bench"
	"gat/internal/charm"
	"gat/internal/comm"
	"gat/internal/gpu"
	"gat/internal/machine"
	"gat/internal/mpi"
	"gat/internal/netsim"
	"gat/internal/pdes"
	"gat/internal/sim"
)

// rung is one layer microbenchmark, reported as <name>_ns (and
// <name>_allocs) per operation. The sim and pdes rungs have the shapes
// of the root BenchmarkZeroDelayLane, BenchmarkProcPingPong,
// BenchmarkEventQueue and BenchmarkPDESWindowMerge, so their numbers
// line up with the committed BENCH_*.json trajectory.
type rung struct {
	name   string
	allocs bool
	fn     func(b *testing.B)
}

var rungs = []rung{
	{"sim.lane", true, rungLane},
	{"sim.pingpong", true, rungPingPong},
	{"sim.hold64", true, rungHold(64)},
	{"sim.hold16k", true, rungHold(16384)},
	{"gpu.kernel", false, rungKernel},
	{"gpu.graph8", false, rungGraph8},
	{"netsim.xfer_nic", false, rungTransferNIC},
	{"netsim.xfer_minimal", false, rungTransferRouted(netsim.RoutingMinimal)},
	{"netsim.xfer_valiant", false, rungTransferRouted(netsim.RoutingValiant)},
	{"netsim.xfer_adaptive", false, rungTransferRouted(netsim.RoutingAdaptive)},
	{"comm.channel", false, rungChannel},
	{"mpi.sendrecv", false, rungSendRecv},
	{"mpi.allreduce12", false, rungAllreduce12},
	{"charm.entry", false, rungCharmEntry},
	{"pdes.window", false, rungWindow},
	{"bench.fingerprint", false, rungFingerprint},
}

// rungBatch bounds the operations issued before the engine runs and the
// machine's transient records are reset, so record memory stays warm.
const rungBatch = 256

// runRungs runs every rung through testing.Benchmark at the scale's
// benchtime and returns <name>_ns and <name>_allocs values.
func runRungs(benchtime string) (map[string]value, error) {
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return nil, fmt.Errorf("setting benchtime: %w", err)
	}
	out := map[string]value{}
	for _, r := range rungs {
		res := testing.Benchmark(r.fn)
		if res.N == 0 {
			return nil, fmt.Errorf("rung %s failed", r.name)
		}
		out[r.name+"_ns"] = value{Value: float64(res.T.Nanoseconds()) / float64(res.N), Unit: "ns", N: res.N}
		if r.allocs {
			out[r.name+"_allocs"] = value{Value: float64(res.MemAllocs) / float64(res.N), Unit: "allocs/op", N: res.N}
		}
	}
	return out, nil
}

// calibrate times fixed standard-library work, the SHA-256 of 64 MiB,
// and returns the median in milliseconds. It moves only when the host
// does.
func calibrate(reps int) value {
	buf := make([]byte, 64<<20)
	for i := range buf {
		buf[i] = byte(i)
	}
	var ms []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		sha256.Sum256(buf)
		ms = append(ms, float64(time.Since(start).Nanoseconds())/1e6)
	}
	return value{Value: median(ms), Unit: "ms", N: reps}
}

func rungLane(b *testing.B) {
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

func rungPingPong(b *testing.B) {
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

// rungHold is the hold workload at a standing queue depth: each op pops
// the earliest event and schedules its replacement.
func rungHold(depth int) func(b *testing.B) {
	return func(b *testing.B) {
		e := sim.NewEngine()
		rng := sim.NewRNG(1)
		var fn func()
		fn = func() { e.Schedule(sim.Time(1+rng.Intn(1000)), fn) }
		for i := 0; i < depth; i++ {
			e.Schedule(sim.Time(1+rng.Intn(1000)), fn)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Step()
		}
	}
}

// batched issues n operations in batches, running the engine and
// resetting the machine's transient records after each.
func batched(m *machine.Machine, n int, issue func(i int)) {
	for done := 0; done < n; {
		k := min(rungBatch, n-done)
		for i := 0; i < k; i++ {
			issue(done + i)
		}
		m.Eng.Run()
		m.ResetTransients()
		done += k
	}
}

// oneGPUPerNode is a two-node Summit with one rank per node, so every
// point-to-point operation crosses the network.
func oneGPUPerNode() *machine.Machine {
	cfg := machine.Summit(2)
	cfg.GPUsPerNode = 1
	return machine.MustNew(cfg)
}

func rungKernel(b *testing.B) {
	m := machine.MustNew(machine.Summit(1))
	s := m.GPUs[0].NewStream("rung", gpu.PriorityNormal)
	b.ResetTimer()
	batched(m, b.N, func(int) { s.Kernel("k", sim.Microsecond) })
}

func rungGraph8(b *testing.B) {
	m := machine.MustNew(machine.Summit(1))
	s := m.GPUs[0].NewStream("rung", gpu.PriorityNormal)
	g := gpu.NewGraph()
	var prev *gpu.GraphNode
	for i := 0; i < 8; i++ {
		if prev == nil {
			prev = g.AddKernel("k", sim.Microsecond)
		} else {
			prev = g.AddKernel("k", sim.Microsecond, prev)
		}
	}
	b.ResetTimer()
	batched(m, b.N, func(int) { s.Launch(g) })
}

func rungTransferNIC(b *testing.B) {
	m := machine.MustNew(machine.Summit(2))
	b.ResetTimer()
	batched(m, b.N, func(int) { m.Net.Transfer(0, 1, 64<<10, sim.FiredSignal()) })
}

// rungTransferRouted sends cross-group messages from group 0 into
// groups 1 and 2 of the fabric-routing machine at taper 16, so every
// op pays route choice and link reservation.
func rungTransferRouted(routing string) func(b *testing.B) {
	return func(b *testing.B) {
		cfg, err := machine.BuildProfile(fabricProfile, fabricNodes)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Fabric.Taper = 16
		cfg.Fabric.Routing = routing
		cfg.Net.JitterSeed = defaultSeed
		m := machine.MustNew(cfg)
		pod := cfg.Net.PodSize
		b.ResetTimer()
		batched(m, b.N, func(i int) {
			m.Net.Transfer(i%pod, pod+(i*7)%(fabricNodes-pod), 64<<10, sim.FiredSignal())
		})
	}
}

func rungChannel(b *testing.B) {
	m := oneGPUPerNode()
	ch := comm.NewChannel(m.Net, comm.Endpoint{Proc: 0, Node: 0}, comm.Endpoint{Proc: 1, Node: 1})
	b.ResetTimer()
	batched(m, b.N, func(i int) {
		ch.Send(0, i%rungBatch, 64<<10, sim.FiredSignal(), nil)
		ch.Recv(1, i%rungBatch, nil)
	})
}

func rungSendRecv(b *testing.B) {
	w := mpi.NewWorld(oneGPUPerNode(), mpi.DefaultOptions())
	n := b.N
	b.ResetTimer()
	w.Run(func(r *mpi.Rank) {
		peer := 1 - r.ID()
		for i := 0; i < n; i++ {
			s := r.Isend(peer, 0, 8<<10, mpi.Device)
			q := r.Irecv(peer, 0, mpi.Device)
			r.Waitall(s, q)
		}
	})
}

func rungAllreduce12(b *testing.B) {
	w := mpi.NewWorld(machine.MustNew(machine.Summit(2)), mpi.DefaultOptions())
	n := b.N
	b.ResetTimer()
	w.Run(func(r *mpi.Rank) {
		for i := 0; i < n; i++ {
			// Epochs only keep consecutive collectives' tags apart.
			r.Allreduce(i%4096+1, 8)
		}
	})
}

// rungCharmEntry bounces a message between two chares on different
// nodes: each op is one entry-method send and delivery.
func rungCharmEntry(b *testing.B) {
	rt := charm.NewRuntime(oneGPUPerNode(), charm.DefaultOptions())
	n := b.N
	var arr *charm.Array
	bounce := func(el *charm.Elem, ctx *charm.Ctx, m charm.Msg) {
		if m.Ref < n {
			ctx.Send(arr, charm.Index{1 - el.Idx[0]}, charm.Msg{Ref: m.Ref + 1, Bytes: 64})
		}
	}
	arr = charm.NewArray(rt, "rung", [3]int{2, 1, 1}, []charm.EntryFn{bounce}, func(charm.Index) any { return nil })
	arr.Invoke(charm.Index{0}, charm.Msg{Ref: 1})
	b.ResetTimer()
	rt.Engine().Run()
}

func rungWindow(b *testing.B) {
	const lookahead = 100 * sim.Nanosecond
	r := pdes.MustNew(pdes.Config{
		LPs: 2, Shards: 2, Lookahead: lookahead,
		Handler: func(ctx *pdes.Ctx, m pdes.Message) {
			if m.Data <= 0 {
				return
			}
			ctx.Send(1-ctx.LP(), lookahead, 0, m.Data-1)
		},
	})
	r.Post(0, 0, 0, int64(b.N))
	b.ReportAllocs()
	b.ResetTimer()
	r.Run()
}

var fingerprintSink string

// rungFingerprint hashes a small figure's first run.
func rungFingerprint(b *testing.B) {
	plan, err := bench.PlanScenario("fig7b", bench.Options{MaxNodes: 2, Iters: 1}, bench.Overrides{})
	if err != nil {
		b.Fatal(err)
	}
	spec := plan.Specs[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fingerprintSink = spec.Fingerprint()
	}
}
