// Command jacobi3d runs one configuration of the Jacobi3D proxy
// application on the simulated machine and reports the time per
// iteration plus resource utilization.
//
// Usage:
//
//	jacobi3d -variant charm-d -nodes 8 -odf 4 -global 1536x1536x3072
//	jacobi3d -variant charm-d -nodes 64 -odf 8 -fusion C -graphs
//	jacobi3d -variant mpi-h -nodes 16 -overlap
//
// Host profiling: -cpuprofile and -memprofile write pprof profiles of
// the simulation (go tool pprof FILE); they change no output byte.
//
//	jacobi3d -variant charm-h -nodes 512 -global 3072x3072x3072 -odf 4 -iters 2 -warmup 1 -cpuprofile cpu.pprof
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"gat/internal/app"
	"gat/internal/machine"
	"gat/internal/profile"
	"gat/internal/sim"
	"gat/internal/timeline"
)

func main() {
	variant := flag.String("variant", "charm-d", "mpi-h | mpi-d | charm-h | charm-d")
	nodes := flag.Int("nodes", 1, "number of nodes")
	machineName := flag.String("machine", "summit", "machine profile (summit, perlmutter, frontier, ...)")
	globalStr := flag.String("global", "768x768x768", "global grid size XxYxZ")
	odf := flag.Int("odf", 1, "overdecomposition factor (charm variants)")
	fusionStr := flag.String("fusion", "none", "kernel fusion: none | A | B | C (charm-d)")
	graphs := flag.Bool("graphs", false, "execute iterations as CUDA-style graphs (charm-d)")
	overlap := flag.Bool("overlap", false, "manual interior/exterior overlap (mpi variants)")
	before := flag.Bool("before-opts", false, "disable the §III-C optimizations (charm variants)")
	iters := flag.Int("iters", 10, "timed iterations")
	warmup := flag.Int("warmup", 3, "warm-up iterations")
	residual := flag.Int("residual", 0, "global residual check every N iterations (0 = off)")
	trace := flag.Bool("trace", false, "record a timeline and print per-resource utilization")
	traceCSV := flag.String("trace-csv", "", "write the raw timeline spans to this CSV file (implies -trace)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the simulation to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (allocations since start, live heap at the end) of the simulation to this file")
	flag.Parse()
	if *traceCSV != "" {
		*trace = true
	}
	if err := checkFlags(*iters, *warmup, *odf, *residual); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	global, err := parseGlobal(*globalStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	mcfg, err := machine.BuildProfile(*machineName, *nodes)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	stopProfiles, err := profile.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	m, err := machine.New(mcfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *trace {
		m.Eng.SetTracer(sim.NewTracer())
	}

	jac, err := app.ByName("jacobi3d")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	run, err := jac.BuildRun(m, *variant, app.Params{
		Global:      global,
		ODF:         *odf,
		Warmup:      *warmup,
		Iters:       *iters,
		Fusion:      *fusionStr,
		Graphs:      *graphs,
		Unoptimized: *before,
		Overlap:     *overlap,
		Residual:    *residual,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	res := run()
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("variant      %s\n", *variant)
	fmt.Printf("machine      %s\n", *machineName)
	fmt.Printf("nodes        %d (%d GPUs)\n", *nodes, m.Procs())
	fmt.Printf("global grid  %dx%dx%d\n", global[0], global[1], global[2])
	if strings.HasPrefix(*variant, "charm") {
		fmt.Printf("odf          %d (%d chares)\n", *odf, m.Procs()**odf)
	}
	fmt.Printf("time/iter    %v\n", res.TimePerIter)
	fmt.Printf("total        %v (%d timed + %d warm-up iterations)\n", res.Total, *iters, *warmup)
	fmt.Printf("kernels      %d\n", res.Kernels)
	fmt.Printf("network      %d messages, %.1f MB\n", res.NetMsgs, float64(res.NetBytes)/1e6)
	fmt.Printf("sim events   %d\n", res.Events)

	var gpuBusy sim.Time
	for _, g := range m.GPUs {
		gpuBusy += g.BusyTime()
	}
	util := 100 * float64(gpuBusy) / float64(res.Total) / float64(len(m.GPUs))
	fmt.Printf("GPU util     %.1f%%\n", util)

	var peak int64
	for _, g := range m.GPUs {
		if g.MemPeak() > peak {
			peak = g.MemPeak()
		}
	}
	fmt.Printf("GPU mem      %.2f GB peak per GPU (of %.0f GB)\n",
		float64(peak)/(1<<30), float64(m.GPUs[0].MemCapacity())/(1<<30))

	if tr := m.Eng.Tracer(); tr != nil {
		an := timeline.Analyze(tr, res.Total)
		fmt.Printf("\noverlap analysis:\n")
		fmt.Printf("  compute busy   %v (%.1f%% of run)\n", an.Compute, 100*an.ComputeUtilization())
		fmt.Printf("  comm busy      %v\n", an.Comm)
		fmt.Printf("  comm hidden    %v (%.1f%% overlapped with compute)\n",
			an.Hidden, 100*an.OverlapFraction())
		fmt.Println("\ntimeline (busiest resources):")
		printTopResources(tr, res.Total, 12)
		if *traceCSV != "" {
			f, err := os.Create(*traceCSV)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			if err := tr.WriteCSV(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %d spans to %s\n", len(tr.Spans), *traceCSV)
		}
	}
}

// printTopResources lists the n busiest traced resources with their
// utilization over the run.
func printTopResources(tr *sim.Tracer, horizon sim.Time, n int) {
	busy := tr.BusyByResource()
	type row struct {
		name string
		t    sim.Time
	}
	rows := make([]row, 0, len(busy))
	for name, t := range busy {
		rows = append(rows, row{name, t})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].t != rows[j].t {
			return rows[i].t > rows[j].t
		}
		return rows[i].name < rows[j].name
	})
	if len(rows) > n {
		rows = rows[:n]
	}
	for _, r := range rows {
		util := 100 * float64(r.t) / float64(horizon)
		fmt.Printf("  %-24s busy %-12v %5.1f%%\n", r.name, r.t, util)
	}
}

// checkFlags refuses iteration counts and an ODF below 1 and a
// negative residual period, naming the flag. The app reads a zero count
// as its default, so -warmup 0 could not mean no warm-up.
func checkFlags(iters, warmup, odf, residual int) error {
	for _, f := range []struct {
		name string
		v    int
	}{{"iters", iters}, {"warmup", warmup}, {"odf", odf}} {
		if f.v < 1 {
			return fmt.Errorf("bad -%s %d: want at least 1", f.name, f.v)
		}
	}
	if residual < 0 {
		return fmt.Errorf("bad -residual %d: want 0 (off) or more", residual)
	}
	return nil
}

func parseGlobal(s string) ([3]int, error) {
	parts := strings.Split(strings.ToLower(s), "x")
	if len(parts) != 3 {
		return [3]int{}, fmt.Errorf("bad -global %q, want XxYxZ", s)
	}
	var g [3]int
	for i, p := range parts {
		if _, err := fmt.Sscanf(p, "%d", &g[i]); err != nil || g[i] <= 0 {
			return [3]int{}, fmt.Errorf("bad -global component %q", p)
		}
	}
	return g, nil
}
