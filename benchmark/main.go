// Command benchmark is the repository's benchmark: five gated workloads
// (and one ungated, run only by name) over the simulator's public API,
// timed in host time in fresh child processes, with correctness checks
// on every pass. A traced run (-trace 1) reports per-layer numbers
// instead: span timings, exact work counts, pprof self time per package,
// layer microbenchmarks and a host calibration. See README.md.
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh                                 # every gated workload
//	bash benchmark/run.sh -workload fabric-routing -seed 7
//	bash benchmark/run.sh -trace 1 -out results.json      # per-layer numbers
//	bash benchmark/run.sh -compare parent.json change.json
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

func main() {
	testing.Init() // registers -test.benchtime, which the layer rungs set
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are one invocation's settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	reps     int
	scale    string
	out      string
	label    string
	traceDir string
}

// workloadTimeout bounds the child processes of one workload; a child
// still running then is killed.
const workloadTimeout = 170 * time.Second

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var names, ungated []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	for _, w := range ungatedWorkloads {
		ungated = append(ungated, w.name)
	}
	fs.StringVar(&o.workload, "workload", "all", "workload to run: "+strings.Join(names, ", ")+
		", or all of these; or, not gated by BENCHMARK.json, "+strings.Join(ungated, ", "))
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "input seed: fabric-routing's jitter and routing draws; the other workloads record it")
	fs.Float64Var(&o.seconds, "seconds", 10, "seconds measured per workload, split across the -reps children (each runs at least one pass)")
	fs.IntVar(&o.trace, "trace", 0, "1: traced run reporting the per-layer metrics instead of the end-to-end ones")
	fs.IntVar(&o.reps, "reps", 3, "fresh child processes per workload")
	fs.StringVar(&o.scale, "scale", "full", "input size: full, or tiny for a smoke run")
	fs.StringVar(&o.out, "out", "", "append each workload's record to this results file")
	fs.StringVar(&o.label, "label", "", "label stored with each record written to -out")
	fs.StringVar(&o.traceDir, "tracedir", filepath.Join(".bench_build", "trace"), "where traced runs write CPU profiles and Trace Event Format span files")
	compare := fs.Bool("compare", false, "compare two results files, each FILE or FILE:LABEL, parent first")
	child := fs.String("child", "", "internal: run one child process of this workload")
	t0 := fs.Int64("t0", 0, "internal: the parent's clock when it started the child, in Unix ns")
	profile := fs.String("profile", "", "internal: trace file prefix of a traced child")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two results files")
			return 2
		}
		if err := compareFiles(fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	case fs.NArg() != 0:
		fmt.Fprintf(stderr, "benchmark: unexpected arguments %q\n", fs.Args())
		return 2
	case *child != "":
		w, err := workloadByName(*child)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		c := childConfig{seed: o.seed, scale: o.scale, budget: seconds(o.seconds), t0: time.Unix(0, *t0), profile: *profile}
		rep := runChild(w, c)
		if err := json.NewEncoder(stdout).Encode(rep); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}

	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(stderr, "benchmark: -trace takes 0 or 1")
		return 2
	}
	// A zero budget would make every child a set-up probe with no pass.
	if o.reps < 1 || !(o.seconds > 0) {
		fmt.Fprintln(stderr, "benchmark: -reps and -seconds must be positive")
		return 2
	}
	if _, err := scaleByName(o.scale); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	selected := workloads
	if o.workload != "all" {
		w, err := workloadByName(o.workload)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		selected = []*workload{w}
	}

	var recs []record
	for _, w := range selected {
		ctx, cancel := context.WithTimeout(context.Background(), workloadTimeout)
		spawn := func(w *workload, c childConfig) (childReport, error) { return spawnChild(ctx, w, c) }
		rec, err := measure(w, o, spawn)
		cancel()
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		for _, e := range rec.Errors {
			fmt.Fprintf(stderr, "benchmark: %s: %s\n", w.name, e)
		}
		printRecord(stdout, rec)
		recs = append(recs, rec)
	}
	if o.out != "" {
		if err := appendResults(o.out, recs); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	ok, err := printResultLine(stdout, recs)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// childConfig is one child process's inputs.
type childConfig struct {
	seed  uint64
	scale string
	// budget is how long the child keeps starting passes; zero makes a
	// set-up probe that stops before its first timed call.
	budget time.Duration
	// t0 is when the parent started the child: set-up time counts from
	// there, so it includes process start and package initialization.
	t0 time.Time
	// profile, if set, traces the child: it writes <profile>.pprof and
	// <profile>.trace.json.
	profile string
}

// childReport is what a child returns to the parent.
type childReport struct {
	SetupS    float64                `json:"setup_s"`
	PassS     []float64              `json:"pass_s"`
	AllocMB   []float64              `json:"alloc_mb"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Errors    []string               `json:"errors,omitempty"`
	Counts    counts                 `json:"counts"`
	Spans     map[string]spanSummary `json:"spans,omitempty"`
	// RSSMB is the child's peak resident set, filled in by the parent.
	RSSMB float64 `json:"-"`
}

// maxErrors bounds the errors a child reports; the count of failed
// operations stays exact.
const maxErrors = 20

//go:embed testdata/digests.txt
var digestFile string

// committedDigests parses testdata/digests.txt: "<workload>/<scale>
// <sha256>" per line.
func committedDigests() map[string]string {
	m := map[string]string{}
	for _, line := range strings.Split(digestFile, "\n") {
		if f := strings.Fields(line); len(f) == 2 && !strings.HasPrefix(line, "#") {
			m[f[0]] = f[1]
		}
	}
	return m
}

// runChild sets the workload up, then runs timed passes until the
// budget is spent, always at least one.
func runChild(w *workload, c childConfig) childReport {
	return runChildWith(w, c, committedDigests())
}

func runChildWith(w *workload, c childConfig, digests map[string]string) (rep childReport) {
	fail := func(err error) childReport {
		rep.Attempted++
		rep.Failed++
		rep.Errors = append(rep.Errors, err.Error())
		return rep
	}
	sc, err := scaleByName(c.scale)
	if err != nil {
		return fail(err)
	}
	e := &env{scale: sc, seed: c.seed, digests: digests}
	if c.profile != "" {
		e.tr = newTracer()
	}
	if e.tmp, err = os.MkdirTemp("", w.name+"-"); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(e.tmp)

	sess, err := w.setup(e)
	rep.SetupS = time.Since(c.t0).Seconds()
	if err != nil {
		return fail(fmt.Errorf("set-up: %w", err))
	}
	if sess.close != nil {
		defer sess.close()
	}
	if c.budget <= 0 {
		return rep
	}

	var prof *os.File
	if e.tr != nil {
		if prof, err = os.Create(c.profile + ".pprof"); err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(prof); err != nil {
			prof.Close()
			return fail(err)
		}
		pprof.SetGoroutineLabels(e.tr.untimed)
	}
	add := func(p *pass) {
		rep.Attempted += p.attempted
		rep.Failed += p.failed()
		for _, s := range p.errs {
			if len(rep.Errors) < maxErrors && !slices.Contains(rep.Errors, s) {
				rep.Errors = append(rep.Errors, s)
			}
		}
	}
	start := time.Now()
	for len(rep.PassS) == 0 || time.Since(start) < c.budget {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p := &pass{tr: e.tr}
		sess.pass(p)
		runtime.ReadMemStats(&after)
		if len(rep.PassS) == 0 {
			rep.Counts = p.c
		} else if p.c != rep.Counts {
			p.errorf("pass %d counted %+v, the first pass %+v", len(rep.PassS)+1, p.c, rep.Counts)
		}
		rep.PassS = append(rep.PassS, p.timed.Seconds())
		rep.AllocMB = append(rep.AllocMB, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
		add(p)
	}
	if prof != nil {
		pprof.StopCPUProfile()
		pprof.SetGoroutineLabels(context.Background())
		if err := prof.Close(); err != nil {
			return fail(err)
		}
	}
	if sess.final != nil {
		p := &pass{}
		sess.final(p)
		add(p)
	}
	if e.tr != nil {
		rep.Spans = e.tr.summaries()
		if err := e.tr.write(c.profile+".trace.json", w.name); err != nil {
			return fail(err)
		}
	}
	return rep
}

// spawnChild runs one child process of the harness's own binary and
// reads its report and peak resident set.
func spawnChild(ctx context.Context, w *workload, c childConfig) (childReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return childReport{}, err
	}
	args := []string{
		"-child", w.name, "-seed", strconv.FormatUint(c.seed, 10), "-scale", c.scale,
		"-seconds", strconv.FormatFloat(c.budget.Seconds(), 'g', -1, 64), "-profile", c.profile,
		"-t0", strconv.FormatInt(time.Now().UnixNano(), 10),
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	if w.oneP {
		cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	}
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return childReport{}, fmt.Errorf("%s child: %w", w.name, err)
	}
	var rep childReport
	if err := json.Unmarshal(out, &rep); err != nil {
		return childReport{}, fmt.Errorf("%s child report: %w", w.name, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rep.RSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return rep, nil
}

// record is one workload's measured result, as printed and as stored
// in a results file.
type record struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Scale     string           `json:"scale"`
	Seconds   float64          `json:"seconds"`
	Reps      int              `json:"reps"`
	Trace     bool             `json:"trace"`
	Label     string           `json:"label,omitempty"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Errors    []string         `json:"errors,omitempty"`
	Metrics   map[string]value `json:"metrics"`
}

// childRunner runs one child: as a process, or in-process in tests.
type childRunner func(w *workload, c childConfig) (childReport, error)

// measure runs one workload: -reps children measuring -seconds between
// them. A traced run alternates untraced and traced children, so the
// tracing overhead compares like with like.
func measure(w *workload, o options, spawn childRunner) (record, error) {
	sc, err := scaleByName(o.scale)
	if err != nil {
		return record{}, err
	}
	rec := record{
		Workload: w.name, Seed: o.seed, Scale: o.scale, Seconds: o.seconds, Reps: o.reps,
		Trace: o.trace == 1, Label: o.label, Metrics: map[string]value{},
	}
	base := childConfig{seed: o.seed, scale: o.scale, budget: seconds(o.seconds / float64(o.reps))}
	if rec.Trace {
		if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
			return record{}, err
		}
	}
	var plain, traced []childReport
	var profiles []string
	collect := func(c childConfig) (childReport, error) {
		r, err := spawn(w, c)
		if err != nil {
			return r, err
		}
		rec.Attempted += r.Attempted
		rec.Failed += r.Failed
		for _, e := range r.Errors {
			if !slices.Contains(rec.Errors, e) {
				rec.Errors = append(rec.Errors, e)
			}
		}
		return r, nil
	}
	for i := 0; i < o.reps; i++ {
		r, err := collect(base)
		if err != nil {
			return record{}, err
		}
		plain = append(plain, r)
		if rec.Trace {
			c := base
			c.profile = filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d-%d", w.name, o.seed, i))
			r, err := collect(c)
			if err != nil {
				return record{}, err
			}
			traced = append(traced, r)
			profiles = append(profiles, c.profile+".pprof")
		}
	}
	for _, r := range append(plain[1:], traced...) {
		if r.Counts != plain[0].Counts {
			rec.Errors = append(rec.Errors, fmt.Sprintf("children counted %+v and %+v", plain[0].Counts, r.Counts))
		}
	}

	var walls []float64
	for _, r := range plain {
		walls = append(walls, r.PassS...)
	}
	if rec.Trace {
		if err := layerMetrics(&rec, sc, walls, plain, traced, profiles); err != nil {
			return record{}, err
		}
	} else {
		var setups, rss []float64
		for _, r := range plain {
			setups = append(setups, r.SetupS)
			rss = append(rss, r.RSSMB)
		}
		// Cheap set-ups are sampled again by children that stop before
		// their first timed call, so the median rests on enough samples.
		probe := base
		probe.budget = 0
		for len(setups) < minSetupSamples && sum(setups) < sc.probeBudget.Seconds() {
			r, err := collect(probe)
			if err != nil {
				return record{}, err
			}
			setups = append(setups, r.SetupS)
		}
		rec.Metrics["wall_s"] = timing(walls, "s")
		rec.Metrics["setup_s"] = timing(setups, "s")
		rec.Metrics["peak_rss_mb"] = value{Value: median(rss), Unit: "MB", N: len(rss)}
	}
	// Set after the set-up probes, whose failures count too.
	rec.Correct = len(rec.Errors) == 0 && rec.Failed == 0
	return rec, nil
}

// minSetupSamples is how many set-ups a run samples when they are cheap.
const minSetupSamples = 11

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// layerMetrics fills a traced run's per-layer metrics.
func layerMetrics(rec *record, sc *scale, walls []float64, plain, traced []childReport, profiles []string) error {
	m := rec.Metrics
	c := plain[0].Counts
	wall := median(walls)
	var tracedWalls, alloc []float64
	for _, r := range traced {
		tracedWalls = append(tracedWalls, r.PassS...)
		alloc = append(alloc, r.AllocMB...)
	}
	count := func(name string, v float64, unit string) {
		m[name] = value{Value: v, Unit: unit, N: len(walls)}
	}
	count("sim.events", float64(c.Events), "count")
	count("sim.events_per_s", float64(c.Events)/wall, "1/s")
	count("gpu.kernels", float64(c.Kernels), "count")
	count("netsim.msgs", float64(c.NetMsgs), "count")
	count("netsim.bytes", float64(c.NetBytes), "B")
	count("netsim.max_link_util", c.MaxLinkUtil, "ratio")
	count("pdes.windows", float64(c.Windows), "count")
	count("pdes.cross_msgs", float64(c.CrossMsgs), "count")
	count("sweep.runs", float64(c.Runs), "count")
	count("sweep.simulated", float64(c.Simulated), "count")
	count("sweep.from_store", float64(c.FromStore), "count")
	count("cache.errors", float64(c.CacheErrors), "count")
	hit := 0.0
	if c.Runs > 0 {
		hit = float64(c.FromStore) / float64(c.Runs)
	}
	count("cache.hit_ratio", hit, "ratio")
	m["gc.alloc_mb"] = timing(alloc, "MB")

	// Span timings: the median over traced children of each child's
	// statistic, resting on every span they recorded.
	spanMetric := func(name, span string, pick func(spanSummary) float64, scaleBy float64, unit string) {
		var xs []float64
		n := 0
		for _, r := range traced {
			if s, ok := r.Spans[span]; ok {
				xs = append(xs, pick(s)*scaleBy)
				n += s.N
			}
		}
		m[name] = value{Value: median(xs), Unit: unit, N: n}
	}
	p50 := func(s spanSummary) float64 { return s.P50 }
	p90 := func(s spanSummary) float64 { return s.P90 }
	p99 := func(s spanSummary) float64 { return s.P99 }
	spanMetric("app.run_p50_ms", "app.run", p50, 1e3, "ms")
	spanMetric("app.run_p90_ms", "app.run", p90, 1e3, "ms")
	spanMetric("jacobi.exa_run_ms", "jacobi.RunExa", p50, 1e3, "ms")
	spanMetric("bench.plan_ms", "bench.PlanScenario", func(s spanSummary) float64 { return s.Total }, 1e3, "ms")
	spanMetric("sweep.self_ms", "sweep.Sweep", func(s spanSummary) float64 { return s.Self }, 1e3, "ms")
	spanMetric("sweep.run_p50_ms", "sweep.run", p50, 1e3, "ms")
	spanMetric("sweep.run_p90_ms", "sweep.run", p90, 1e3, "ms")
	spanMetric("store.get_p50_us", "store.Get", p50, 1e6, "us")
	spanMetric("store.get_p99_us", "store.Get", p99, 1e6, "us")
	spanMetric("store.put_p50_us", "store.Put", p50, 1e6, "us")
	spanMetric("store.put_p99_us", "store.Put", p99, 1e6, "us")
	spanMetric("remote.get_p50_us", "remote.Get", p50, 1e6, "us")
	spanMetric("remote.get_p99_us", "remote.Get", p99, 1e6, "us")

	overhead := 100 * (median(tracedWalls)/wall - 1)
	m["trace.overhead_pct"] = value{Value: overhead, Unit: "%", N: len(tracedWalls)}

	shares, samples, err := selfShares(profiles)
	if err != nil {
		return err
	}
	for _, l := range layers {
		m[l+".self_pct"] = value{Value: shares[l], Unit: "%", N: samples}
	}

	rv, err := runRungs(sc.benchtime)
	if err != nil {
		return err
	}
	for _, k := range sortedKeys(rv) {
		m[k] = rv[k]
	}
	calib := calibrate(sc.calibReps)
	m["host.calib_ms"] = calib
	m["host.wall_per_calib"] = value{Value: wall / calib.Value, Unit: "s/ms", N: len(walls)}
	return nil
}

// declared returns the metrics a run reports, in declaration order.
func declared(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// printRecord prints "workload metric value unit n=N [pXX=...]" for
// every declared metric.
func printRecord(w io.Writer, rec record) {
	for _, d := range declared(rec.Trace) {
		v := rec.Metrics[d.Name]
		line := fmt.Sprintf("%s %s %.6g %s n=%d", rec.Workload, d.Name, v.Value, v.Unit, v.N)
		if v.Tail != "" {
			line += " " + v.Tail
		}
		fmt.Fprintln(w, line)
	}
}

// resultMetric is one metric in the final result line.
type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResultLine prints the machine-readable last line: correctness,
// operation counts and every declared metric. With several workloads
// the metric names carry a "<workload>/" prefix. It reports whether
// every workload was correct.
func printResultLine(w io.Writer, recs []record) (bool, error) {
	out := struct {
		Correct   bool                    `json:"correct"`
		Attempted int                     `json:"attempted"`
		Failed    int                     `json:"failed"`
		Metrics   map[string]resultMetric `json:"metrics"`
	}{Correct: true, Metrics: map[string]resultMetric{}}
	for _, rec := range recs {
		out.Correct = out.Correct && rec.Correct
		out.Attempted += rec.Attempted
		out.Failed += rec.Failed
		for _, d := range declared(rec.Trace) {
			name := d.Name
			if len(recs) > 1 {
				name = rec.Workload + "/" + name
			}
			v := rec.Metrics[d.Name]
			out.Metrics[name] = resultMetric{Value: v.Value, Unit: v.Unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return false, err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return out.Correct, err
}

// resultsFile is the -out format.
type resultsFile struct {
	Schema string   `json:"schema"`
	Runs   []record `json:"runs"`
}

const resultsSchema = "gat-benchmark-v1"

func readResults(path string) (resultsFile, error) {
	var f resultsFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultsSchema {
		return f, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, resultsSchema)
	}
	return f, nil
}

// appendResults adds recs to the results file at path, creating it.
func appendResults(path string, recs []record) error {
	f, err := readResults(path)
	if errors.Is(err, os.ErrNotExist) {
		f, err = resultsFile{Schema: resultsSchema}, nil
	}
	if err != nil {
		return err
	}
	f.Runs = append(f.Runs, recs...)
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
