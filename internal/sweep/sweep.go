// Package sweep is the parallel figure-sweep orchestrator. It takes
// the flat RunSpec plans that internal/bench produces, executes the
// specs on a worker pool — every simulation builds its own machine and
// private sim.Engine, and the only state runs share is the sweep's
// memo of simulation results, whose entries are identical whichever
// worker stores them — and reassembles the results in deterministic
// spec order. Table and CSV output is therefore byte-identical at any
// worker count and under any scheduling; only the per-run wall-clock
// metadata in the JSON report varies between hosts.
package sweep

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"gat/internal/bench"
	"gat/internal/sweep/store"
)

// Options tunes a sweep.
type Options struct {
	// Workers is the worker-pool size; <= 0 means GOMAXPROCS.
	Workers int
	// Bench is passed through to the scenario plan builders.
	Bench bench.Options
	// Overrides re-targets every swept scenario (machine profile, and
	// app for app-generic scenarios).
	Overrides bench.Overrides
	// Progress, if non-nil, receives one line per completed run.
	Progress io.Writer
	// Cache, if non-nil, is the content-addressed run cache: every
	// spec is looked up by fingerprint before simulating, and every
	// simulated (or resumed) result is written through. Assembly order
	// is unchanged, so cached sweeps stay byte-identical to cold ones.
	// Any Cache implementation slots in here — the local disk store
	// (*store.Store), a shared sweepd service (remote.Client), or the
	// two stacked (Tiered).
	Cache Cache
	// Prior, if non-nil, supplies results from a previous (possibly
	// partial) report: specs whose fingerprint it holds are not
	// simulated. See NewPrior.
	Prior Prior
	// Notify, if non-nil, is called once per completed run, as soon as
	// its point is final — before the sweep finishes or assembles.
	// This is the streaming hook: cmd/sweep uses it to publish per-run
	// completions to a sweepd watch stream. Calls arrive concurrently
	// from worker goroutines, in completion (not spec) order; Notify
	// must not block for long — it stalls one worker — and has no way
	// to alter the run.
	Notify func(Run)
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Source says where a run's point came from.
type Source uint8

// Run sources, in lookup order: the fingerprint-keyed store beats a
// prior report beats simulating.
const (
	// SourceSim marks a point produced by executing the simulation.
	SourceSim Source = iota
	// SourceStore marks a content-addressed cache hit.
	SourceStore
	// SourcePrior marks a point reused from a -resume report.
	SourcePrior
)

func (s Source) String() string {
	switch s {
	case SourceSim:
		return "sim"
	case SourceStore:
		return "store"
	case SourcePrior:
		return "prior"
	default:
		return fmt.Sprintf("Source(%d)", int(s))
	}
}

// Run is one completed RunSpec with its result, provenance and
// host-side cost.
type Run struct {
	Spec  bench.RunSpec
	Point bench.Point
	// Key is the spec's content-address fingerprint.
	Key string
	// Source says whether the point was simulated, served from the run
	// store, or reused from a resumed report.
	Source Source
	// Wall is the host wall-clock time the run took. Metadata only:
	// it never influences figure values or output ordering.
	Wall time.Duration
	// SimWallNS is the host cost of the simulation that originally
	// produced the point: equal to Wall for simulated runs, and
	// carried over from the store entry / prior report for cached and
	// resumed ones — what the hit saved, not what the lookup cost.
	SimWallNS int64
}

// FigureResult is one reassembled figure plus its per-run metadata.
type FigureResult struct {
	Figure bench.Figure
	Runs   []Run // in spec order
}

// Result is a completed sweep.
type Result struct {
	Figures []FigureResult
	// Wall is the host wall-clock for the whole sweep; Workers the
	// pool size that produced it.
	Wall    time.Duration
	Workers int
	// Simulated, FromStore and FromPrior count the runs by source; a
	// fully warm cache shows Simulated == 0.
	Simulated, FromStore, FromPrior int
	// Reused counts the simulations (bench.Cell.Run calls) that the
	// sweep's memo answered because an earlier simulation of the same
	// sweep had the same input. A simulated run may reuse some of its
	// simulations, so Reused is not a run count.
	Reused int
	// CacheErrors counts non-fatal run-store failures (corrupt entries
	// discarded, write-through errors); each is also reported on the
	// Progress writer. The sweep's figures are unaffected: failed
	// lookups are simulated and failed writes only lose the entry.
	CacheErrors int
}

// Each runs fn(0..n-1) on up to workers goroutines and returns when
// all calls finished. fn must write its result at its own index; Each
// imposes no output ordering of its own. It is the primitive under
// Sweep, exported for other embarrassingly parallel grids (e.g.
// cmd/microbench's transfer-path matrix).
func Each(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// job addresses one spec within one figure plan.
type job struct {
	fig, spec int
}

// Sweep generates every figure in ids concurrently and reassembles
// them in the order given. Unknown ids fail before any run starts.
func Sweep(ids []string, opt Options) (Result, error) {
	// One memo of simulation results for this call's plans: the
	// figures share data points, and a repeated simulation returns the
	// earlier one's metrics.
	opt.Bench = opt.Bench.WithMemo()

	plans := make([]bench.Plan, len(ids))
	var jobs []job
	for i, id := range ids {
		p, err := bench.PlanScenario(id, opt.Bench, opt.Overrides)
		if err != nil {
			return Result{}, err
		}
		plans[i] = p
		for s := range p.Specs {
			jobs = append(jobs, job{fig: i, spec: s})
		}
	}

	runs := make([][]Run, len(plans))
	for i, p := range plans {
		runs[i] = make([]Run, len(p.Specs))
	}

	var (
		mu        sync.Mutex
		done      int
		cacheErrs int
	)
	// complain reports a non-fatal cache problem; the run itself is
	// unaffected (lookup failures simulate, write failures lose only
	// the store entry).
	complain := func(err error) {
		mu.Lock()
		cacheErrs++
		if opt.Progress != nil {
			fmt.Fprintf(opt.Progress, "cache: %v\n", err)
		}
		mu.Unlock()
	}
	if opt.Progress != nil {
		fmt.Fprintf(opt.Progress, "sweep: %d runs across %d figures on %d workers\n",
			len(jobs), len(plans), opt.workers())
	}
	start := time.Now() //gat:nondet-ok host-side sweep wall time; never enters figure values
	Each(len(jobs), opt.workers(), func(j int) {
		fig, si := jobs[j].fig, jobs[j].spec
		spec := plans[fig].Specs[si]
		key := spec.Fingerprint()
		t0 := time.Now() //gat:nondet-ok per-run wall_ns provenance; never enters figure values

		// Lookup order: the store, then the prior report, then the
		// simulator. Both sources are keyed on the fingerprint, so the
		// order only decides which provenance a run reports.
		pt, src := bench.Point{}, SourceSim
		var simWallNS int64
		if opt.Cache != nil {
			e, ok, err := opt.Cache.Get(key)
			if err != nil {
				// A hit can arrive with an error (e.g. Tiered failing to
				// seed its local tier): use the hit, log the problem.
				complain(err)
			}
			if ok {
				pt, src, simWallNS = e.Point(), SourceStore, e.WallNS
			}
		}
		if src == SourceSim {
			if h, ok := opt.Prior[key]; ok {
				pt, src, simWallNS = h.Point, SourcePrior, h.WallNS
			}
		}
		if src == SourceSim {
			pt = spec.Execute()
		}
		wall := time.Since(t0) //gat:nondet-ok per-run wall_ns provenance; never enters figure values
		if src == SourceSim {
			simWallNS = wall.Nanoseconds()
		}
		// Write-through: simulated results are memoized under their
		// fingerprint, and resumed points propagate into the store
		// (with the original simulation's cost) so the next sweep hits
		// without the report. The store missed in both cases, so
		// nothing is clobbered.
		if opt.Cache != nil && src != SourceStore {
			if e, err := store.NewEntry(key, spec, pt, simWallNS); err != nil {
				complain(err)
			} else if err := opt.Cache.Put(e); err != nil {
				complain(err)
			}
		}

		run := Run{Spec: spec, Point: pt, Key: key, Source: src, Wall: wall, SimWallNS: simWallNS}
		runs[fig][si] = run
		if opt.Notify != nil {
			opt.Notify(run)
		}
		if opt.Progress != nil {
			tag := ""
			if pt.MaxLinkUtil > 0 {
				// Congestion summary: the run's peak fabric-link
				// utilization, flagging network-bound points.
				tag = fmt.Sprintf(" net=%.0f%%", 100*pt.MaxLinkUtil)
			}
			if src != SourceSim {
				tag += " [" + src.String() + "]"
			}
			mu.Lock()
			done++
			fmt.Fprintf(opt.Progress, "[%d/%d] %-24s %10.3f  (%v)%s\n",
				done, len(jobs), spec.Name(), pt.Value, wall.Round(time.Millisecond), tag)
			mu.Unlock()
		}
	})

	//gat:nondet-ok host-side sweep wall time; never enters figure values
	res := Result{Wall: time.Since(start), Workers: opt.workers(), CacheErrors: cacheErrs, Reused: opt.Bench.Reused()}
	for i, p := range plans {
		points := make([]bench.Point, len(p.Specs))
		for s, r := range runs[i] {
			points[s] = r.Point
			switch r.Source {
			case SourceStore:
				res.FromStore++
			case SourcePrior:
				res.FromPrior++
			default:
				res.Simulated++
			}
		}
		res.Figures = append(res.Figures, FigureResult{
			Figure: p.Assemble(points),
			Runs:   runs[i],
		})
	}
	return res, nil
}

// Provenance summarizes the run sources as a one-line string, e.g.
// "24 runs: 12 simulated, 12 from store, 0 resumed".
func (r Result) Provenance() string {
	total := r.Simulated + r.FromStore + r.FromPrior
	return fmt.Sprintf("%d runs: %d simulated, %d from store, %d resumed",
		total, r.Simulated, r.FromStore, r.FromPrior)
}

// WriteExplain renders the per-run provenance table (spec order):
// which runs were simulated and which were served from the cache or a
// resumed report, under which content-address keys. This is the same
// information the gat-sweep-v3 JSON embeds per run, shaped for humans.
func (r Result) WriteExplain(w io.Writer) {
	fmt.Fprintf(w, "# %s\n", r.Provenance())
	fmt.Fprintf(w, "%-28s %-6s %-32s %-8s %s\n", "RUN", "SOURCE", "KEY", "NET", "WALL")
	for _, f := range r.Figures {
		for _, run := range f.Runs {
			// NET is the run's peak fabric-link utilization: where the
			// sweep was network-bound ("-" on NIC-only machines).
			net := "-"
			if run.Point.MaxLinkUtil > 0 {
				net = fmt.Sprintf("%.0f%%", 100*run.Point.MaxLinkUtil)
			}
			fmt.Fprintf(w, "%-28s %-6s %-32s %-8s %v\n",
				run.Spec.Name(), run.Source, run.Key, net, run.Wall.Round(time.Millisecond))
		}
	}
}

// WriteTables renders every figure as an aligned text table, blank
// line separated — the same bytes at any worker count.
func (r Result) WriteTables(w io.Writer) {
	for _, f := range r.Figures {
		f.Figure.WriteTable(w)
		fmt.Fprintln(w)
	}
}

// WriteCSV renders every figure as CSV, each with its own header row —
// the same bytes at any worker count.
func (r Result) WriteCSV(w io.Writer) error {
	for _, f := range r.Figures {
		if err := f.Figure.WriteCSV(w); err != nil {
			return err
		}
	}
	return nil
}
