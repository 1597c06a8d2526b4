package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// span is one call the harness made into a layer.
type span struct {
	name       string
	start, end time.Duration // since the child started
	parent     int           // index into tracer.spans, -1 for none
}

// tracer keeps a traced child's spans in memory until the child ends.
// Every call the harness times runs on one goroutine (the sweeps use a
// single worker, whose loop runs on the caller's goroutine), so it needs
// no lock. A nil *tracer records nothing.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	// untimed labels the harness goroutine's CPU samples outside timed
	// calls, so the profile buckets leave out the harness's own
	// preparation and cleanup between calls.
	untimed context.Context
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), untimed: pprof.WithLabels(context.Background(), pprof.Labels("phase", "untimed"))}
}

// timed runs fn with the harness goroutine's samples counted, and
// goroutines it starts inheriting that.
func (t *tracer) timed(fn func()) {
	if t == nil {
		fn()
		return
	}
	pprof.Do(t.untimed, pprof.Labels("phase", "timed"), func(context.Context) { fn() })
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.t0), end: -1, parent: parent})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].end = time.Since(t.t0)
	t.open = t.open[:len(t.open)-1]
}

// adopt records a span that ends now and lasted at least d, as a child
// of the open span, and re-parents under it the open span's children
// recorded from index from on, stretching its start to cover them. The
// sweep runs are rebuilt this way from their Notify callbacks: the
// orchestrator reports a run's wall time only after the cache calls
// around it. It returns the index the next adoption starts from.
func (t *tracer) adopt(name string, d time.Duration, from int) int {
	end := time.Since(t.t0)
	start := end - d
	parent := t.open[len(t.open)-1]
	for i := from; i < len(t.spans); i++ {
		if t.spans[i].parent == parent && t.spans[i].start < start {
			start = t.spans[i].start
		}
	}
	t.spans = append(t.spans, span{name: name, start: start, end: end, parent: parent})
	id := len(t.spans) - 1
	for i := from; i < id; i++ {
		if t.spans[i].parent == parent {
			t.spans[i].parent = id
		}
	}
	return len(t.spans)
}

// spanSummary condenses the spans of one name: how many, the duration
// percentiles and total, and the median self time (duration minus the
// direct children's), all in seconds.
type spanSummary struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Total float64 `json:"total"`
	Self  float64 `json:"self"`
}

func (t *tracer) summaries() map[string]spanSummary {
	childTime := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			childTime[s.parent] += s.end - s.start
		}
	}
	durs := map[string][]float64{}
	selfs := map[string][]float64{}
	var names []string
	for i, s := range t.spans {
		if _, seen := durs[s.name]; !seen {
			names = append(names, s.name)
		}
		durs[s.name] = append(durs[s.name], (s.end - s.start).Seconds())
		selfs[s.name] = append(selfs[s.name], (s.end - s.start - childTime[i]).Seconds())
	}
	out := make(map[string]spanSummary, len(names))
	for _, name := range names {
		d := durs[name]
		var total float64
		for _, x := range d {
			total += x
		}
		out[name] = spanSummary{
			N: len(d), P50: percentile(d, 50), P90: percentile(d, 90), P99: percentile(d, 99),
			Total: total, Self: median(selfs[name]),
		}
	}
	return out
}

// traceEvent is one complete ("X") event of the Trace Event Format,
// which Perfetto and chrome://tracing read.
type traceEvent struct {
	Name string    `json:"name"`
	Ph   string    `json:"ph"`
	Ts   float64   `json:"ts"`
	Dur  float64   `json:"dur"`
	Pid  int       `json:"pid"`
	Tid  int       `json:"tid"`
	Args traceArgs `json:"args"`
}

type traceArgs struct {
	Workload string `json:"workload"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
}

// write saves the spans as Trace Event Format JSON.
func (t *tracer) write(path, workload string) error {
	evs := make([]traceEvent, len(t.spans))
	for i, s := range t.spans {
		evs[i] = traceEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: traceArgs{Workload: workload, ID: i, Parent: s.parent},
		}
	}
	b, err := json.Marshal(struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}{evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfShares merges CPU profiles with `go tool pprof -traces` and
// attributes every sample to a layer with layerOf. It returns each
// layer's share of all samples in percent, and the sample count at the
// profiler's 100 Hz.
func selfShares(profiles []string) (map[string]float64, int, error) {
	args := append([]string{"tool", "pprof", "-traces", "-tagignore=phase=untimed"}, profiles...)
	cmd := exec.Command("go", args...)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+os.TempDir())
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %v: %s", err, stderr.Bytes())
	}
	samples, err := parseTraces(out)
	if err != nil {
		return nil, 0, err
	}
	var total time.Duration
	byLayer := map[string]time.Duration{}
	for _, s := range samples {
		byLayer[layerOf(s.stack)] += s.d
		total += s.d
	}
	shares := make(map[string]float64, len(layers))
	for _, l := range layers {
		if total > 0 {
			shares[l] = 100 * float64(byLayer[l]) / float64(total)
		}
	}
	return shares, int(total / (10 * time.Millisecond)), nil
}

// stackSample is one distinct stack of a profile, leaf first, with the
// CPU time sampled in it.
type stackSample struct {
	d     time.Duration
	stack []string
}

// parseTraces reads `pprof -traces`: blocks separated by dashed lines,
// each optionally opening with label lines ("phase:  timed"), then the
// sampled time and the leaf function, then one caller per line.
func parseTraces(out []byte) ([]stackSample, error) {
	var samples []stackSample
	inBlocks := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "-----------+"):
			inBlocks = true
		case !inBlocks || len(fields) == 0 || strings.HasSuffix(fields[0], ":"):
		case len(samples) > 0 && len(samples[len(samples)-1].stack) > 0 && !startsSample(fields):
			last := &samples[len(samples)-1]
			last.stack = append(last.stack, frameName(fields))
		default:
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return nil, fmt.Errorf("pprof trace line %q: want a time and a function", line)
			}
			samples = append(samples, stackSample{d: d, stack: []string{frameName(fields[1:])}})
		}
	}
	if !inBlocks {
		return nil, fmt.Errorf("pprof printed no traces:\n%s", out)
	}
	return samples, sc.Err()
}

// startsSample reports whether a trace line opens a sample: it leads
// with the sampled time, as no function name can.
func startsSample(fields []string) bool {
	_, err := time.ParseDuration(fields[0])
	return err == nil && len(fields) > 1
}

func frameName(fields []string) string {
	return strings.TrimSuffix(strings.Join(fields, " "), " (inline)")
}

// layerOf names the layer one sample's CPU time belongs to. The stack is
// read from the leaf: the innermost frame in the simulator's packages
// names the layer, so the standard-library and runtime work a layer
// calls directly (file reads, JSON, allocation, parking a proc on its
// own stack) counts as its own, and a harness frame met first makes it
// other. A stack with neither, such as the background collector, the
// scheduler or the HTTP server reading a request, falls to its leaf's
// bucket: gc, runtime or stdlib.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if b := bucket(fn); b != "gc" && b != "runtime" && b != "stdlib" {
			return b
		}
	}
	return bucket(stack[0])
}

// gcFuncs are the runtime functions of the garbage collector: marking,
// scanning, sweeping and write barriers. Allocation itself stays under
// runtime.
var gcFuncs = []string{
	"runtime.gc", "runtime.(*gc", "runtime._GC", "runtime.scan", "runtime.mark",
	"runtime.greyobject", "runtime.findObject", "runtime.(*mspan).sweep",
	"runtime.(*sweepLocked)", "runtime.sweepone", "runtime.bgsweep",
	"runtime.wbBuf", "runtime.bulkBarrier", "runtime.(*mspan).typePointers",
	"runtime.typePointers", "runtime.(*markBits)", "runtime.spanOf",
}

// bucket names the layer of one function: its gat/internal package, or
// gc, runtime, stdlib, or other for the harness and the simulator's
// remaining packages.
func bucket(fn string) string {
	pkg := pkgPath(fn)
	switch {
	case strings.HasPrefix(pkg, "gat/internal/"):
		rest := strings.TrimPrefix(pkg, "gat/internal/")
		switch rest {
		case "sweep/store/remote":
			return "remote"
		case "sweep/store":
			return "store"
		case "jacobi/compute":
			return "jacobi"
		}
		for _, l := range layers {
			if l == rest {
				return l
			}
		}
		return "other"
	case pkg == "internal/runtime/syscall":
		// The raw system call under package syscall: kernel time spent
		// for os and net, not the runtime's own work.
		return "stdlib"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		for _, p := range gcFuncs {
			if strings.HasPrefix(fn, p) {
				return "gc"
			}
		}
		return "runtime"
	case pkg == "main" || strings.HasPrefix(pkg, "gat/"):
		return "other"
	default:
		return "stdlib"
	}
}

// pkgPath extracts the import path from a symbol such as
// "gat/internal/sim.(*Arena[gat/internal/netsim.xferOp]).New": the path
// ends at the first dot after the last slash that precedes any receiver
// or type-argument bracket.
func pkgPath(fn string) string {
	head := fn
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		head = fn[:i]
	}
	slash := strings.LastIndex(head, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
