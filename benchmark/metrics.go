package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef declares one metric. BENCHMARK.json at the repository root
// carries the same tables; benchmark_test.go keeps the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
}

// endToEnd are the gated metrics, all in host time or host memory. They
// are measured with tracing off.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// layers are the pprof self-time buckets: the simulator's packages under
// gat/internal, then the Go runtime split into the collector and the
// rest, the standard library, and everything else (the harness itself,
// machine, core, timeline).
var layers = []string{
	"sim", "gpu", "netsim", "comm", "mpi", "charm", "pdes", "app", "jacobi",
	"bench", "sweep", "store", "remote", "sweepd", "gc", "runtime", "stdlib", "other",
}

// perLayer are the traced run's metrics. They are reported, not gated.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lower := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	higher := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	var defs []metricDef
	for _, r := range rungs {
		defs = append(defs, lower(r.name+"_ns", "ns"))
		if r.allocs {
			defs = append(defs, lower(r.name+"_allocs", "allocs/op"))
		}
	}
	defs = append(defs,
		lower("sim.events", "count"),
		higher("sim.events_per_s", "1/s"),
		lower("gpu.kernels", "count"),
		lower("netsim.msgs", "count"),
		lower("netsim.bytes", "B"),
		lower("netsim.max_link_util", "ratio"),
		lower("pdes.windows", "count"),
		lower("pdes.cross_msgs", "count"),
		lower("app.run_p50_ms", "ms"),
		lower("app.run_p90_ms", "ms"),
		lower("jacobi.exa_run_ms", "ms"),
		lower("bench.plan_ms", "ms"),
		lower("sweep.self_ms", "ms"),
		lower("sweep.run_p50_ms", "ms"),
		lower("sweep.run_p90_ms", "ms"),
		lower("sweep.runs", "count"),
		lower("sweep.simulated", "count"),
		higher("sweep.from_store", "count"),
		lower("store.get_p50_us", "us"),
		lower("store.get_p99_us", "us"),
		lower("store.put_p50_us", "us"),
		lower("store.put_p99_us", "us"),
		lower("remote.get_p50_us", "us"),
		lower("remote.get_p99_us", "us"),
		higher("cache.hit_ratio", "ratio"),
		lower("cache.errors", "count"),
		lower("gc.alloc_mb", "MB"),
		lower("host.calib_ms", "ms"),
		lower("host.wall_per_calib", "s/ms"),
		lower("trace.overhead_pct", "%"),
	)
	for _, l := range layers {
		defs = append(defs, lower(l+".self_pct", "%"))
	}
	return defs
}

// value is one reported metric: the number, its unit, how many samples
// it rests on, and for a timing with at least 20 samples the highest
// percentile that has ten samples beyond it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Tail  string  `json:"tail,omitempty"`
}

// timing reports the median of samples, with its tail percentile.
func timing(samples []float64, unit string) value {
	return value{Value: median(samples), Unit: unit, N: len(samples), Tail: tail(samples)}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// tail names the highest of a few standard percentiles that still has
// at least ten samples beyond it, for timings with 20 or more samples.
func tail(xs []float64) string {
	n := len(xs)
	if n < 20 {
		return ""
	}
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if n-int(math.Ceil(p/100*float64(n))) >= 10 {
			return fmt.Sprintf("p%g=%.6g", p, percentile(xs, p))
		}
	}
	return ""
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so spreads read the same here as in any script checking them.
func quartiles(xs []float64) [3]float64 {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = min(max(j, 1), ld-1)
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q
}
