package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

// inProcess runs a child in the test's own process.
func inProcess(w *workload, c childConfig) (childReport, error) {
	c.t0 = time.Now()
	rep := runChild(w, c)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return rep, err
	}
	rep.RSSMB = float64(ru.Maxrss) / 1024
	return rep, nil
}

// benchmarkJSON is the part of BENCHMARK.json the harness must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, harness %s: %s", i, bj.Workloads[i], w.name, w.why)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the harness %d+%d",
			len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		j := bj.EndToEnd[i]
		if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better || j.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, harness %+v", i, j, d)
		}
	}
	for i, d := range perLayer {
		j := bj.PerLayer[i]
		if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, harness %+v", i, j, d)
		}
	}
}

// TestSmoke runs every workload in-process at the tiny scale, untraced
// and traced, and checks that the harness prints exactly the metrics
// BENCHMARK.json declares, each with its unit and sample count.
func TestSmoke(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	units := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range bj.EndToEnd {
		units[false][m.Name] = m.Unit
	}
	for _, m := range bj.PerLayer {
		units[true][m.Name] = m.Unit
	}
	o := options{seed: defaultSeed, seconds: 0.05, reps: 1, scale: "tiny", traceDir: t.TempDir()}
	for _, w := range allWorkloads() {
		for _, trace := range []int{0, 1} {
			o.trace = trace
			rec, err := measure(w, o, inProcess)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.name, trace, err)
			}
			if !rec.Correct || rec.Attempted == 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d errors=%q", w.name, trace, rec.Correct, rec.Attempted, rec.Errors)
			}
			var out bytes.Buffer
			printRecord(&out, rec)
			want := units[trace == 1]
			seen := map[string]bool{}
			for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
				f := strings.Fields(line)
				if len(f) < 5 || f[0] != w.name || !strings.HasPrefix(f[4], "n=") {
					t.Errorf("malformed line %q", line)
					continue
				}
				unit, ok := want[f[1]]
				switch {
				case !ok:
					t.Errorf("%s prints undeclared metric %q", w.name, f[1])
				case f[3] != unit:
					t.Errorf("%s %s: unit %q, declared %q", w.name, f[1], f[3], unit)
				}
				seen[f[1]] = true
			}
			if len(seen) != len(want) {
				t.Errorf("%s trace=%d printed %d of %d declared metrics", w.name, trace, len(seen), len(want))
			}
		}
	}
}

// TestCorruptDigestFails checks that a wrong committed digest fails the
// pass and counts its runs as failed.
func TestCorruptDigestFails(t *testing.T) {
	for _, name := range []string{"paper-figs", "fabric-routing", "exascale-lp"} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		digests := committedDigests()
		digests[name+"/tiny"] = strings.Repeat("0", 64)
		c := childConfig{seed: defaultSeed, scale: "tiny", budget: time.Nanosecond, t0: time.Now()}
		rep := runChildWith(w, c, digests)
		if len(rep.Errors) == 0 || rep.Failed == 0 {
			t.Errorf("%s with a corrupted digest: attempted=%d failed=%d errors=%q", name, rep.Attempted, rep.Failed, rep.Errors)
		}
	}
}

// TestFailedProbeIsIncorrect checks that a set-up probe whose set-up
// fails makes the workload's record incorrect.
func TestFailedProbeIsIncorrect(t *testing.T) {
	w, err := workloadByName("exascale-lp")
	if err != nil {
		t.Fatal(err)
	}
	spawn := func(_ *workload, c childConfig) (childReport, error) {
		if c.budget > 0 {
			return childReport{SetupS: 0.001, PassS: []float64{0.1}, Attempted: 1}, nil
		}
		return childReport{SetupS: 0.001, Attempted: 1, Failed: 1, Errors: []string{"set-up: injected"}}, nil
	}
	rec, err := measure(w, options{seed: defaultSeed, seconds: 1, reps: 1, scale: "tiny"}, spawn)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Correct || rec.Failed == 0 {
		t.Errorf("failed probe: correct=%v failed=%d errors=%q", rec.Correct, rec.Failed, rec.Errors)
	}
}

// TestRejectsNonPositiveSeconds checks that a run with no time to
// measure exits non-zero without printing a result.
func TestRejectsNonPositiveSeconds(t *testing.T) {
	for _, s := range []string{"0", "-1", "NaN"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-workload", "exascale-lp", "-scale", "tiny", "-seconds", s}, &stdout, &stderr)
		if code == 0 || stdout.Len() != 0 {
			t.Errorf("-seconds %s: exit %d, printed %q", s, code, stdout.String())
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if got != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles(1..10) = %v", got)
	}
}

func TestJudge(t *testing.T) {
	d := metricDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	parent := []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10}
	shift := func(f float64) []float64 {
		var out []float64
		for _, p := range parent {
			out = append(out, p*f)
		}
		return out
	}
	for _, tc := range []struct {
		change []float64
		want   string
	}{
		{shift(0.8), "improved"},
		{shift(1.0), "unchanged"},
		{shift(1.05), "unchanged"},
		{shift(1.2), "regressed"},
	} {
		if got := judge(d, parent, tc.change).verdict; got != tc.want {
			t.Errorf("change %v: %s, want %s", tc.change, got, tc.want)
		}
	}
	noisy := []float64{5, 15, 5, 15, 5, 15, 5, 15, 5, 15}
	if got := judge(d, noisy, noisy).verdict; got != "unresolved" {
		t.Errorf("spread wider than the bound: %s, want unresolved", got)
	}
}

func TestBucket(t *testing.T) {
	for _, tc := range []struct{ fn, want string }{
		{"gat/internal/sim.(*Engine).drive", "sim"},
		{"gat/internal/sim.(*Arena[gat/internal/netsim.xferOp]).New", "sim"},
		{"gat/internal/sweep/store/remote.(*Client).Get", "remote"},
		{"gat/internal/sweep/store.(*Store).Get", "store"},
		{"gat/internal/jacobi/compute.Step", "jacobi"},
		{"gat/internal/machine.New", "other"},
		{"runtime.scanobject", "gc"},
		{"runtime.mallocgc", "runtime"},
		{"internal/runtime/atomic.(*Uint32).Load", "runtime"},
		{"net/http.(*conn).serve", "stdlib"},
		{"main.runChild", "other"},
	} {
		if got := bucket(tc.fn); got != tc.want {
			t.Errorf("bucket(%q) = %s, want %s", tc.fn, got, tc.want)
		}
	}
}

// TestLayerOfTraces parses `pprof -traces` output and attributes each
// stack to the innermost simulator or harness frame, or by its leaf.
func TestLayerOfTraces(t *testing.T) {
	out := []byte(`File: gatbench
Type: cpu
-----------+-------------------------------------------------------
     phase:  timed
      20ms   internal/runtime/syscall.Syscall6
             os.ReadFile
             gat/internal/sweep/store.(*Store).Get
             main.timedCache.Get
             gat/internal/sweep.Tiered.Get
-----------+-------------------------------------------------------
      10ms   runtime.mallocgc
             main.(*tracer).begin
             gat/internal/sweep.Sweep.func2
-----------+-------------------------------------------------------
      1.5s   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      30ms   net/http.(*conn).readRequest
             net/http.(*conn).serve
-----------+-------------------------------------------------------
`)
	samples, err := parseTraces(out)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		d     time.Duration
		layer string
	}{{20 * time.Millisecond, "store"}, {10 * time.Millisecond, "other"}, {1500 * time.Millisecond, "gc"}, {30 * time.Millisecond, "stdlib"}}
	if len(samples) != len(want) {
		t.Fatalf("parsed %d samples, want %d", len(samples), len(want))
	}
	for i, w := range want {
		if got := layerOf(samples[i].stack); samples[i].d != w.d || got != w.layer {
			t.Errorf("sample %d: %v in %s, want %v in %s", i, samples[i].d, got, w.d, w.layer)
		}
	}
}
