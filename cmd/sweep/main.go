// Command sweep runs registered scenarios — app x machine x
// variant-series x sweep-axis compositions — on the simulated
// machines. The paper's figures (fig6a..fig9b) and the ablations are
// themselves registered scenarios, so -fig remains a thin alias. Runs
// execute concurrently on a worker pool (one private simulation engine
// per run); output is reassembled in deterministic order, so any -j
// produces the same table and CSV bytes as -j 1.
//
// Usage:
//
//	sweep -list                             # every registered scenario
//	sweep -fig fig7c                        # one paper figure
//	sweep -fig all -maxnodes 64             # all figures, capped sweep
//	sweep -scenario minimd-lb -j 4 -v       # a non-paper scenario
//	sweep -scenario fig7b -machine frontier # same experiment, other machine
//	sweep -scenario scaling -app minimd -machine perlmutter
//	sweep -scenario jacobi-exascale -shards 4 # parallel-in-run (same bytes)
//	sweep -fig all -json                    # gat-sweep-v3 JSON report
//
// Incremental sweeps: every run is content-addressed (a fingerprint
// over scenario, app, machine, series, x, nodes, iteration counts,
// seed, jitter and sim.EngineVersion, the one model salt), so identical
// runs need never be simulated twice.
//
//	sweep -fig all -cache                   # memoize runs on disk
//	sweep -fig all -cache -explain          # ...and say what was cached
//	sweep -fig all -resume partial.json     # re-run only what's missing
//
// A warm -cache sweep emits byte-identical output to a cold one and
// performs zero simulations.
//
// Sweep as a service: point -remote at a sweepd server and the run
// store is shared across machines. -cache and -remote compose into a
// tiered cache (local disk first, then the network); -sweep-id streams
// each completed run to the server's /v1/watch endpoint. A dead or
// unreachable sweepd degrades to plain simulation with a warning —
// remote failures can cost wall time, never figure bytes.
//
//	sweep -fig all -remote http://cachehost:8344
//	sweep -fig all -cache -remote http://cachehost:8344   # tiered
//	sweep -fig all -remote http://cachehost:8344 -sweep-id nightly
//
// Host profiling: -cpuprofile and -memprofile write pprof profiles of
// the sweep (go tool pprof FILE); they change no output byte.
//
//	sweep -fig all -maxnodes 16 -j 1 -memprofile mem.pprof
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"text/tabwriter"

	"gat/internal/app"
	"gat/internal/bench"
	"gat/internal/machine"
	"gat/internal/profile"
	"gat/internal/sweep"
	"gat/internal/sweep/store"
	"gat/internal/sweep/store/remote"
)

func main() {
	fig := flag.String("fig", "", "figure id (fig6a..fig9b) or 'all' / 'ablations' — aliases for registered scenarios")
	scenario := flag.String("scenario", "", "registered scenario name (see -list)")
	machineName := flag.String("machine", "", "machine profile override (see -list for profiles)")
	appName := flag.String("app", "", "application override, for app-generic scenarios like 'scaling'")
	list := flag.Bool("list", false, "list registered scenarios, apps and machine profiles, then exit")
	maxNodes := flag.Int("maxnodes", 0, "cap the node sweep (0 = paper's full range)")
	iters := flag.Int("iters", 0, "timed iterations per run (0 = default 10)")
	warmup := flag.Int("warmup", 0, "warm-up iterations per run (0 = default 3)")
	jitter := flag.Float64("jitter", 0, "network latency jitter fraction (0 = exactly deterministic; seeded per run)")
	shards := flag.Int("shards", 1, "parallel-in-run engine shards for scenarios that support them (byte-identical output at any value)")
	jobs := flag.Int("j", runtime.NumCPU(), "concurrent simulation runs (default: all CPUs)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	jsonOut := flag.Bool("json", false, "emit a JSON report with per-run provenance (gat-sweep-v3)")
	cache := flag.Bool("cache", false, "memoize runs in the content-addressed run store")
	cacheDir := flag.String("cache-dir", "", "run store directory (implies -cache; default: user cache dir /gat/sweep)")
	remoteURL := flag.String("remote", "", "sweepd base URL (e.g. http://cachehost:8344); composes with -cache as a tiered store")
	sweepID := flag.String("sweep-id", "", "publish each completed run to the sweepd under this id, feeding its /v1/watch stream (requires -remote)")
	remoteToken := flag.String("remote-token", os.Getenv("SWEEPD_TOKEN"), "bearer token for a sweepd started with -token (default $SWEEPD_TOKEN)")
	resume := flag.String("resume", "", "reuse results from a previous gat-sweep JSON report; only missing/failed runs are simulated")
	explain := flag.Bool("explain", false, "print the per-run provenance table (simulated vs cached, keys) to stderr")
	verbose := flag.Bool("v", false, "print per-run progress to stderr")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (allocations since start, live heap at the end) of the sweep to this file")
	flag.Parse()

	if *list {
		listScenarios(os.Stdout)
		return
	}
	opt := sweep.Options{
		Workers:   *jobs,
		Bench:     bench.Options{MaxNodes: *maxNodes, Iters: *iters, Warmup: *warmup, Jitter: *jitter, Shards: *shards},
		Overrides: bench.Overrides{Machine: *machineName, App: *appName},
	}
	if err := checkFlags(opt.Bench); err != nil {
		fatalf("%v", err)
	}
	if *machineName != "" {
		if _, err := machine.ProfileByName(*machineName); err != nil {
			fatalf("%v", err)
		}
	}
	if *verbose {
		opt.Progress = os.Stderr
		if *shards > 1 {
			fmt.Fprintf(os.Stderr, "sweep: parallel-in-run shards: %d\n", *shards)
		}
	}
	if *cacheDir != "" {
		*cache = true
	}
	if *cache {
		dir := *cacheDir
		if dir == "" {
			base, err := os.UserCacheDir()
			if err != nil {
				fatalf("no default cache location (%v); pass -cache-dir", err)
			}
			dir = filepath.Join(base, "gat", "sweep")
		}
		st, err := store.Open(dir)
		if err != nil {
			fatalf("%v", err)
		}
		opt.Cache = st
	}
	if *sweepID != "" && *remoteURL == "" {
		fatalf("-sweep-id needs -remote: run publication goes to the sweepd server")
	}
	if *remoteURL != "" {
		rc, err := remote.Open(*remoteURL, remote.WithToken(*remoteToken))
		if err != nil {
			fatalf("%v", err)
		}
		if opt.Cache != nil {
			// Local disk first, network on miss; a remote hit seeds the
			// local tier. Content-addressed entries make tier order a
			// cost decision only — the bytes are identical either way.
			opt.Cache = sweep.Tiered{Local: opt.Cache, Remote: rc}
		} else {
			opt.Cache = rc
		}
		if *sweepID != "" {
			// Publication is advisory: the sweep's own report stays the
			// source of truth, so a failing watch feed warns once and
			// the sweep carries on.
			var warnOnce sync.Once
			opt.Notify = func(run sweep.Run) {
				if err := rc.PublishRun(*sweepID, run.Record()); err != nil {
					warnOnce.Do(func() {
						fmt.Fprintf(os.Stderr, "sweep: warning: publishing runs to %s failed (%v); the watch stream for %q will be incomplete\n",
							*remoteURL, err, *sweepID)
					})
				}
			}
		}
	}
	if *resume != "" {
		f, err := os.Open(*resume)
		if err != nil {
			fatalf("cannot read -resume report: %v", err)
		}
		rep, err := sweep.ReadJSON(f)
		f.Close()
		if err != nil {
			fatalf("-resume %s: %v", *resume, err)
		}
		opt.Prior = sweep.NewPrior(rep)
		if *verbose {
			fmt.Fprintf(os.Stderr, "sweep: resuming from %s (%d reusable runs)\n",
				*resume, len(opt.Prior))
		}
	}

	ids, err := resolveIDs(*fig, *scenario)
	if err != nil {
		fatalf("%v", err)
	}
	sizeWarnings(os.Stderr, ids, opt.Bench, opt.Overrides)

	stopProfiles, err := profile.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatalf("%v", err)
	}
	res, err := sweep.Sweep(ids, opt)
	if err := stopProfiles(); err != nil {
		fatalf("%v", err)
	}
	if err != nil {
		fatalf("%v", err)
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "sweep: %d figures in %v with %d workers (%s)\n",
			len(res.Figures), res.Wall.Round(1e6), res.Workers, res.Provenance())
		fmt.Fprintf(os.Stderr, "sweep: %d repeated simulations answered by the sweep's memo, %d stopped at their ODF-search bound\n",
			res.Reused, res.Stopped)
	}
	if res.CacheErrors > 0 {
		// Never silent, -v or not: a full disk or rotting cache dir
		// means the memoization the user asked for isn't happening
		// (figure output itself is unaffected — misses re-simulate).
		fmt.Fprintf(os.Stderr, "sweep: warning: %d cache errors (run with -v for details); results are correct but not (fully) memoized\n",
			res.CacheErrors)
	}
	if *explain {
		res.WriteExplain(os.Stderr)
	}

	switch {
	case *jsonOut:
		err = res.WriteJSON(os.Stdout)
	case *csv:
		err = res.WriteCSV(os.Stdout)
	default:
		res.WriteTables(os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// checkFlags refuses the sweep options no run can honor, naming the
// flag: a negative node cap or iteration count (0 picks the default), a
// jitter fraction outside [0,1) or NaN, fewer than one shard, and
// shards with jitter.
func checkFlags(o bench.Options) error {
	for _, f := range []struct {
		name string
		v    int
	}{{"maxnodes", o.MaxNodes}, {"iters", o.Iters}, {"warmup", o.Warmup}} {
		if f.v < 0 {
			return fmt.Errorf("bad -%s %d: want 0 (the default) or more", f.name, f.v)
		}
	}
	switch {
	case !(o.Jitter >= 0 && o.Jitter < 1):
		return fmt.Errorf("bad -jitter %g: want a fraction in [0,1)", o.Jitter)
	case o.Shards < 1:
		return fmt.Errorf("bad -shards %d: want at least 1", o.Shards)
	case o.Shards > 1 && o.Jitter > 0:
		return fmt.Errorf("-shards %d is incompatible with -jitter: the jitter RNG stream is not partitioned across shards, so sharded jittered runs would not reproduce serial ones; drop one of the two flags", o.Shards)
	}
	return nil
}

// resolveIDs maps the -fig alias and -scenario flag to scenario names.
// With neither set, -fig defaults to every paper figure.
func resolveIDs(fig, scenario string) ([]string, error) {
	if scenario != "" {
		if fig != "" {
			return nil, fmt.Errorf("use either -fig or -scenario, not both")
		}
		// Validate here so a typo fails before any run starts.
		if _, err := bench.ScenarioByName(scenario); err != nil {
			return nil, err
		}
		return []string{scenario}, nil
	}
	if fig == "" {
		fig = "all"
	}
	switch fig {
	case "all":
		return scenarioNames(bench.KindFigure), nil
	case "ablations":
		return scenarioNames(bench.KindAblation), nil
	default:
		if _, err := bench.ScenarioByName(fig); err != nil {
			return nil, err
		}
		return []string{fig}, nil
	}
}

func scenarioNames(k bench.Kind) []string {
	var ids []string
	for _, s := range bench.Scenarios() {
		if s.Kind == k {
			ids = append(ids, s.Name)
		}
	}
	return ids
}

// sizeWarnings prints one line per scenario in ids that opt runs below
// the size its figure needs (see bench.Scenario.Undersized). The sweep
// still runs, and its output does not change.
func sizeWarnings(w io.Writer, ids []string, opt bench.Options, ov bench.Overrides) {
	for _, id := range ids {
		s, err := bench.ScenarioByName(id)
		if err != nil {
			continue // the sweep reports it
		}
		if msg := s.SizeWarning(opt, ov); msg != "" {
			fmt.Fprintf(w, "sweep: warning: %s\n", msg)
		}
	}
}

// listScenarios prints the registry: scenarios with their default
// composition, then the registered apps and machine profiles. Each
// table's columns are as wide as their longest entry.
func listScenarios(w io.Writer) {
	tw := tabwriter.NewWriter(w, 0, 0, 1, ' ', 0)
	fmt.Fprintln(tw, "SCENARIO\tKIND\tAPP\tMACHINE\tTITLE")
	for _, s := range bench.Scenarios() {
		appCol := s.App
		if appCol == "" {
			appCol = "-"
		}
		if s.SeriesFor != nil {
			appCol += "*"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n", s.Name, s.Kind, appCol, s.Machine, s.Title)
	}
	tw.Flush()
	fmt.Fprintf(w, "\napps (* = overridable with -app):\n")
	for _, a := range app.Apps() {
		fmt.Fprintf(w, "  %-10s variants: %v\n", a.Name(), a.Variants())
	}
	fmt.Fprintf(w, "\nmachine profiles (-machine):\n")
	tw = tabwriter.NewWriter(w, 0, 0, 1, ' ', 0)
	fmt.Fprintln(tw, "  PROFILE\tTOPOLOGY\tROUTING\tDESCRIPTION")
	for _, p := range machine.Profiles() {
		// The topology/taper and routing columns come from the built
		// config (any node count: profiles are homogeneous in geometry).
		cfg := p.Build(2)
		fmt.Fprintf(tw, "  %s\t%s\t%s\t%s\n", p.Name, cfg.TopologySummary(), cfg.RoutingSummary(), p.Description)
	}
	tw.Flush()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sweep: "+format+"\n", args...)
	os.Exit(2)
}
