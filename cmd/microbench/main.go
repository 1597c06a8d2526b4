// Command microbench measures the simulator's communication and device
// primitives the way osu_latency/osu_bw measure a real cluster: one-way
// latency and effective bandwidth for every transfer path, and the
// device-side launch/copy overheads. Use it to sanity-check the cost
// model against the calibration targets in DESIGN.md §5.
//
// It also runs the event-queue hold microgrid (arrival distribution x
// standing depth) through the engine's timed-event heap.
//
// Usage: microbench [-j N]
package main

import (
	"flag"
	"fmt"
	"runtime"
	"time"

	"gat/internal/gpu"
	"gat/internal/machine"
	"gat/internal/netsim"
	"gat/internal/sim"
	"gat/internal/sweep"
)

func main() {
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "concurrent simulation runs")
	flag.Parse()

	fmt.Println("== transfer paths: one-way delivery time (inter-node) ==")
	fmt.Printf("%-10s %14s %14s %14s %14s\n", "size", "host", "gpudirect", "staged", "pipelined")
	// The whole grid (sizes x paths) runs on the worker pool — each
	// cell simulates on its own 2-node machine — and prints in
	// deterministic row order afterwards.
	sizes := []int{10, 12, 14, 16, 18, 20, 22, 24}
	paths := []func(m *machine.Machine, bytes int64, ready *sim.Signal) *sim.Signal{
		func(m *machine.Machine, bytes int64, ready *sim.Signal) *sim.Signal {
			return m.Net.Transfer(0, 1, bytes, ready)
		},
		func(m *machine.Machine, bytes int64, ready *sim.Signal) *sim.Signal {
			return m.Net.TransferGPUDirect(0, 1, bytes, ready)
		},
		func(m *machine.Machine, bytes int64, ready *sim.Signal) *sim.Signal {
			return m.Net.StagedTransfer(m.GPUOf(0), m.GPUOf(6), 0, 1, bytes, ready)
		},
		func(m *machine.Machine, bytes int64, ready *sim.Signal) *sim.Signal {
			return m.Net.PipelinedStagedTransfer(m.GPUOf(0), m.GPUOf(6), 0, 1, bytes,
				m.Cfg.Net.PipelineChunkSize, ready)
		},
	}
	grid := make([]sim.Time, len(sizes)*len(paths))
	sweep.Each(len(grid), *jobs, func(i int) {
		bytes := int64(1) << sizes[i/len(paths)]
		path := paths[i%len(paths)]
		grid[i] = pathTime(bytes, func(m *machine.Machine, ready *sim.Signal) *sim.Signal {
			return path(m, bytes, ready)
		})
	})
	for r, p := range sizes {
		row := grid[r*len(paths) : (r+1)*len(paths)]
		fmt.Printf("%-10s %14v %14v %14v %14v\n", size(int64(1)<<p), row[0], row[1], row[2], row[3])
	}

	fmt.Println("\n== effective bandwidth at 16 MiB (GB/s) ==")
	bytes := int64(16) << 20
	bwRows := []struct {
		name string
		f    func(m *machine.Machine, ready *sim.Signal) *sim.Signal
	}{
		{"host", func(m *machine.Machine, ready *sim.Signal) *sim.Signal {
			return m.Net.Transfer(0, 1, bytes, ready)
		}},
		{"gpudirect", func(m *machine.Machine, ready *sim.Signal) *sim.Signal {
			return m.Net.TransferGPUDirect(0, 1, bytes, ready)
		}},
		{"pipelined", func(m *machine.Machine, ready *sim.Signal) *sim.Signal {
			return m.Net.PipelinedStagedTransfer(m.GPUOf(0), m.GPUOf(6), 0, 1, bytes,
				m.Cfg.Net.PipelineChunkSize, ready)
		}},
		{"intra-node", func(m *machine.Machine, ready *sim.Signal) *sim.Signal {
			return m.Net.Transfer(0, 0, bytes, ready)
		}},
	}
	bw := make([]sim.Time, len(bwRows))
	sweep.Each(len(bwRows), *jobs, func(i int) { bw[i] = pathTime(bytes, bwRows[i].f) })
	for i, row := range bwRows {
		fmt.Printf("  %-12s %6.1f GB/s\n", row.name, float64(bytes)/bw[i].Seconds()/1e9)
	}

	fmt.Println("\n== device primitives (V100 model) ==")
	cfg := gpu.V100()
	fmt.Printf("  kernel launch (host)    %v\n", cfg.KernelLaunchHost)
	fmt.Printf("  kernel dispatch (dev)   %v\n", cfg.KernelDispatch)
	fmt.Printf("  async copy call (host)  %v\n", cfg.CopyLaunchHost)
	fmt.Printf("  graph launch (host)     %v + %v/node\n", cfg.GraphLaunchHost, cfg.GraphNodeHost)
	fmt.Printf("  graph dispatch (dev)    %v/node\n", cfg.GraphNodeDispatch)
	fmt.Printf("  stream sync (host)      %v\n", cfg.SyncOverhead)
	fmt.Printf("  HBM2 roofline           %.0f GB/s\n", cfg.MemBandwidth/1e9)
	fmt.Printf("  host link (per engine)  %.0f GB/s\n", cfg.CopyBandwidth/1e9)

	fmt.Println("\n== kernel time scaling (roofline) ==")
	e := sim.NewEngine()
	d := gpu.New(e, "v100", cfg)
	for _, cells := range []int64{1 << 18, 1 << 21, 1 << 24, 1 << 27, 603979776} {
		fmt.Printf("  %11d cells  update %v\n", cells, d.KernelTime(cells*24))
	}

	fmt.Println("\n== event queue: hold workload ns/op ==")
	fmt.Printf("%-10s %10s %10s %10s\n", "depth", "uniform", "bimodal", "ties")
	for _, depth := range []int{64, 1024, 16384} {
		var cells [len(holdDists)]float64
		for i, next := range holdDists {
			cells[i] = holdCell(depth, next)
		}
		fmt.Printf("%-10d %10.1f %10.1f %10.1f\n", depth, cells[0], cells[1], cells[2])
	}

	fmt.Println("\n== network config (Summit EDR fat tree) ==")
	ncfg := netsim.Summit()
	fmt.Printf("  base latency            %v (+%v/hop)\n", ncfg.LatencyBase, ncfg.LatencyPerHop)
	fmt.Printf("  injection bandwidth     %.0f GB/s\n", ncfg.InjectionBW/1e9)
	fmt.Printf("  rendezvous threshold    %d KiB\n", ncfg.RendezvousThreshold>>10)
	fmt.Printf("  pipeline chunk          %d MiB + %v/chunk\n",
		ncfg.PipelineChunkSize>>20, ncfg.PipelineChunkOverhead)
}

// holdDists are the arrival distributions of the hold microgrid's
// columns, mirroring the BenchmarkEventQueue* variants: uniform short
// gaps, a near/far bimodal mix, and all-ties (fixed period, ordering
// carried by sequence numbers alone).
var holdDists = [3]func(rng *sim.RNG) sim.Time{
	func(rng *sim.RNG) sim.Time { return sim.Time(1 + rng.Intn(1000)) },
	func(rng *sim.RNG) sim.Time {
		d := sim.Time(1 + rng.Intn(1000))
		if rng.Intn(2) == 1 {
			d += 1_000_000
		}
		return d
	},
	func(*sim.RNG) sim.Time { return 1000 },
}

// holdCell runs one hold-workload cell — pop the earliest event,
// schedule a replacement drawn from dist, repeat — at the given
// standing depth, returning wall ns/op. Cells run serially: wall
// timing under a worker pool would measure scheduler contention, not
// the queue.
func holdCell(depth int, dist func(*sim.RNG) sim.Time) float64 {
	e := sim.NewEngine()
	rng := sim.NewRNG(1)
	var fn func()
	fn = func() { e.Schedule(dist(rng), fn) }
	for i := 0; i < depth; i++ {
		fn()
	}
	const ops = 1 << 18
	start := time.Now()
	for i := 0; i < ops; i++ {
		e.Step()
	}
	wall := time.Since(start)
	return float64(wall.Nanoseconds()) / ops
}

// pathTime measures one delivery on a fresh 2-node machine.
func pathTime(bytes int64, f func(m *machine.Machine, ready *sim.Signal) *sim.Signal) sim.Time {
	m := machine.MustNew(machine.Summit(2))
	var at sim.Time
	f(m, sim.FiredSignal()).OnFire(m.Eng, func() { at = m.Eng.Now() })
	m.Eng.Run()
	return at
}

func size(bytes int64) string {
	switch {
	case bytes >= 1<<20:
		return fmt.Sprintf("%dMiB", bytes>>20)
	case bytes >= 1<<10:
		return fmt.Sprintf("%dKiB", bytes>>10)
	default:
		return fmt.Sprintf("%dB", bytes)
	}
}
