package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"gat/internal/bench"
)

// quickOpt keeps orchestrator tests fast: tiny sweeps, few iterations.
func quickOpt() bench.Options {
	return bench.Options{MaxNodes: 2, Warmup: 1, Iters: 2}
}

// testIDs mixes paper figures (Charm and MPI runs, best-ODF searches,
// run pairs) with a non-jacobi ablation, so the determinism check
// covers every spec shape.
var testIDs = []string{"fig6a", "fig7b", "fig9a", "abl-chanapi"}

// serialOutput renders ids as the orchestrator would, tables then CSV,
// from one single-worker sweep per id: no run shares a memo with
// another figure's.
func serialOutput(t *testing.T, ids []string) []byte {
	t.Helper()
	figs := make([]bench.Figure, len(ids))
	for i, id := range ids {
		res, err := Sweep([]string{id}, Options{Workers: 1, Bench: quickOpt()})
		if err != nil {
			t.Fatal(err)
		}
		figs[i] = res.Figures[0].Figure
	}
	var buf bytes.Buffer
	for _, f := range figs {
		f.WriteTable(&buf)
		fmt.Fprintln(&buf)
	}
	for _, f := range figs {
		if err := f.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func parallelOutput(t *testing.T, ids []string, workers int) []byte {
	t.Helper()
	res, err := Sweep(ids, Options{Workers: workers, Bench: quickOpt()})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.WriteTables(&buf)
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParallelMatchesSerial is the core determinism regression: a
// parallel sweep of several figures must produce byte-identical table
// and CSV output to single-worker sweeps of one figure each, whatever
// the worker count.
func TestParallelMatchesSerial(t *testing.T) {
	want := serialOutput(t, testIDs)
	for _, workers := range []int{1, 3, 8} {
		got := parallelOutput(t, testIDs, workers)
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
				workers, want, got)
		}
	}
}

// TestRepeatedSweepsBitIdentical asserts that two sweeps with the same
// specs (hence the same seeds) produce bit-identical output.
func TestRepeatedSweepsBitIdentical(t *testing.T) {
	a := parallelOutput(t, testIDs, 4)
	b := parallelOutput(t, testIDs, 4)
	if !bytes.Equal(a, b) {
		t.Fatal("two identical sweeps produced different bytes")
	}
}

// TestJitterSeededDeterministic asserts the RunSpec seed is actually
// consumed: with jitter enabled, repeated parallel sweeps stay
// bit-identical (the jitter RNG is seeded per run from the spec), and
// the perturbed values differ from the jitter-free ones. fig7b is the
// probe because its MPI ranks block on halo latency, so latency
// jitter must move the measured time (Charm figures can absorb small
// jitter in compute slack).
func TestJitterSeededDeterministic(t *testing.T) {
	jopt := quickOpt()
	jopt.Jitter = 0.05
	run := func() []byte {
		res, err := Sweep([]string{"fig7b"}, Options{Workers: 4, Bench: jopt})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed jittered sweeps differ:\n%s\n---\n%s", a, b)
	}
	res, err := Sweep([]string{"fig7b"}, Options{Workers: 4, Bench: quickOpt()})
	if err != nil {
		t.Fatal(err)
	}
	var clean bytes.Buffer
	if err := res.WriteCSV(&clean); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, clean.Bytes()) {
		t.Fatal("jitter had no effect: seeded RNG not wired into the runs")
	}
}

func TestSweepUnknownIDFailsEarly(t *testing.T) {
	if _, err := Sweep([]string{"fig6a", "nope"}, Options{Bench: quickOpt()}); err == nil {
		t.Fatal("unknown id should error")
	}
}

func TestSweepRunMetadata(t *testing.T) {
	res, err := Sweep([]string{"fig6a"}, Options{Workers: 2, Bench: quickOpt()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Figures) != 1 {
		t.Fatalf("want 1 figure, got %d", len(res.Figures))
	}
	f := res.Figures[0]
	nPoints := 0
	for _, s := range f.Figure.Series {
		nPoints += len(s.Points)
	}
	if len(f.Runs) != nPoints {
		t.Fatalf("runs (%d) != points (%d)", len(f.Runs), nPoints)
	}
	seeds := map[uint64]bool{}
	for _, r := range f.Runs {
		if r.Spec.Scenario != "fig6a" {
			t.Fatalf("run has wrong figure id %q", r.Spec.Scenario)
		}
		if r.Spec.Iters <= 0 || r.Spec.Warmup <= 0 {
			t.Fatalf("run %s missing iteration metadata: %+v", r.Spec.Name(), r.Spec)
		}
		if seeds[r.Spec.Seed] {
			t.Fatalf("duplicate seed %d", r.Spec.Seed)
		}
		seeds[r.Spec.Seed] = true
	}
}

func TestWriteJSON(t *testing.T) {
	res, err := Sweep([]string{"fig6a", "abl-chanapi"}, Options{Workers: 4, Bench: quickOpt()})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Schema  string `json:"schema"`
		Workers int    `json:"workers"`
		WallNS  int64  `json:"wall_ns"`
		Figures []struct {
			ID     string `json:"id"`
			Series []struct {
				Name   string `json:"name"`
				Points []struct {
					X     int     `json:"x"`
					Value float64 `json:"value"`
				} `json:"points"`
			} `json:"series"`
			Runs []struct {
				Figure   string  `json:"figure"`
				Scenario string  `json:"scenario"`
				App      string  `json:"app"`
				Machine  string  `json:"machine"`
				Seed     uint64  `json:"seed"`
				WallNS   int64   `json:"wall_ns"`
				Key      string  `json:"key"`
				Cached   bool    `json:"cached"`
				Source   string  `json:"source"`
				Value    float64 `json:"value"`
			} `json:"runs"`
		} `json:"figures"`
	}
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if rep.Schema != SchemaV3 {
		t.Fatalf("schema = %q", rep.Schema)
	}
	if rep.Workers != 4 || rep.WallNS <= 0 {
		t.Fatalf("bad header: workers=%d wall=%d", rep.Workers, rep.WallNS)
	}
	if len(rep.Figures) != 2 || rep.Figures[0].ID != "fig6a" || rep.Figures[1].ID != "abl-chanapi" {
		t.Fatalf("figures out of order: %+v", rep.Figures)
	}
	for _, f := range rep.Figures {
		if len(f.Series) == 0 || len(f.Runs) == 0 {
			t.Fatalf("%s: empty series or runs", f.ID)
		}
		for _, r := range f.Runs {
			if r.Figure != f.ID {
				t.Fatalf("run under %s claims figure %s", f.ID, r.Figure)
			}
			if r.Machine != "summit" {
				t.Fatalf("run under %s missing composition fields: %+v", f.ID, r)
			}
			if len(r.Key) != 32 || r.Source != "sim" {
				t.Fatalf("run under %s missing provenance (want 32-char key, source=sim): %+v", f.ID, r)
			}
		}
	}
	// The v3 per-run value must duplicate the rendered figure point, so
	// a partial report is self-contained for resume.
	r0 := rep.Figures[0].Runs[0]
	p0 := rep.Figures[0].Series[0].Points[0]
	if r0.Value != p0.Value {
		t.Fatalf("run value %v != series point value %v", r0.Value, p0.Value)
	}
	// fig6a runs belong to the jacobi3d app; abl-chanapi bypasses the
	// app layer and must say so.
	if got := rep.Figures[0].Runs[0].App; got != "jacobi3d" {
		t.Fatalf("fig6a app = %q", got)
	}
	if got := rep.Figures[1].Runs[0].App; got != "" {
		t.Fatalf("abl-chanapi app = %q, want empty", got)
	}
}

// TestReadJSONAcceptsAllVersions checks the reader side of the schema
// bumps: v3 documents round-trip with their provenance, and v1/v2
// documents (no fingerprints, no per-run values) are refused with
// ErrUnknownSchema.
func TestReadJSONAcceptsAllVersions(t *testing.T) {
	res, err := Sweep([]string{"fig6a"}, Options{Workers: 2, Bench: quickOpt()})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	rep, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != SchemaV3 || len(rep.Figures) != 1 || rep.Figures[0].Runs[0].Machine != "summit" {
		t.Fatalf("v3 round trip lost data: %+v", rep)
	}
	if rep.Figures[0].Runs[0].Key == "" || rep.Figures[0].Runs[0].Source != "sim" {
		t.Fatalf("v3 round trip lost provenance: %+v", rep.Figures[0].Runs[0])
	}

	v1 := `{"schema":"gat-sweep-v1","workers":1,"wall_ns":5,
		"figures":[{"id":"fig6a","title":"t","xlabel":"nodes","ylabel":"ms",
		"series":[{"name":"Before","points":[{"x":1,"value":2.5}]}],
		"runs":[{"figure":"fig6a","series":"Before","x":1,"nodes":1,"warmup":3,"iters":10,"seed":7,"wall_ns":9}]}]}`
	v2 := `{"schema":"gat-sweep-v2","workers":1,"wall_ns":5,
		"figures":[{"id":"fig6a","title":"t","xlabel":"nodes","ylabel":"ms",
		"series":[{"name":"Before","points":[{"x":1,"value":2.5}]}],
		"runs":[{"figure":"fig6a","scenario":"fig6a","app":"jacobi3d","machine":"summit",
		"series":"Before","x":1,"nodes":1,"warmup":3,"iters":10,"seed":7,"wall_ns":9}]}]}`
	for _, doc := range []string{v1, v2} {
		if _, err := ReadJSON(strings.NewReader(doc)); !errors.Is(err, ErrUnknownSchema) {
			t.Fatalf("pre-v3 report: err = %v, want ErrUnknownSchema", err)
		}
	}

	if _, err := ReadJSON(strings.NewReader(`{"schema":"gat-sweep-v9"}`)); err == nil {
		t.Fatal("unknown schema should error")
	}
}

// TestSweepMachineOverride threads Overrides through the orchestrator.
func TestSweepMachineOverride(t *testing.T) {
	base, err := Sweep([]string{"fig6a"}, Options{Workers: 2, Bench: quickOpt()})
	if err != nil {
		t.Fatal(err)
	}
	over, err := Sweep([]string{"fig6a"}, Options{
		Workers:   2,
		Bench:     quickOpt(),
		Overrides: bench.Overrides{Machine: "perlmutter"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := over.Figures[0].Runs[0].Spec.Machine; got != "perlmutter" {
		t.Fatalf("override spec machine = %q", got)
	}
	var a, b bytes.Buffer
	if err := base.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := over.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("perlmutter override produced byte-identical figures to summit")
	}
}

func TestEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 4, 100} {
		const n = 37
		var hit [n]atomic.Int32
		Each(n, workers, func(i int) { hit[i].Add(1) })
		for i := range hit {
			if got := hit[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d run %d times", workers, i, got)
			}
		}
	}
	Each(0, 4, func(int) { t.Fatal("fn called for n=0") })
}

func TestProgressLinesComplete(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	res, err := Sweep([]string{"fig6a"}, Options{
		Workers:  4,
		Bench:    quickOpt(),
		Progress: lockedTestWriter{mu: &mu, w: &buf},
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	out := buf.String()
	lines := bytes.Count(buf.Bytes(), []byte("\n"))
	mu.Unlock()
	// One header line announcing the effective worker count, then one
	// line per completed run.
	if lines != len(res.Figures[0].Runs)+1 {
		t.Fatalf("progress lines = %d, want %d", lines, len(res.Figures[0].Runs)+1)
	}
	if !strings.Contains(out, "on 4 workers") {
		t.Fatalf("progress header does not report the worker count:\n%s", out)
	}
}

type lockedTestWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (l lockedTestWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}
