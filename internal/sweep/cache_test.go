package sweep

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"gat/internal/bench"
	"gat/internal/sweep/store"
)

func openStore(t *testing.T) *store.Store {
	t.Helper()
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func renderAll(t *testing.T, res Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	res.WriteTables(&buf)
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCachedSweepByteIdentical is the cache's core contract, in all
// three directions: a cold cached sweep matches the uncached path, a
// warm sweep matches the cold one byte for byte, and the warm sweep
// performs zero engine simulations (run-counter hook).
func TestCachedSweepByteIdentical(t *testing.T) {
	st := openStore(t)
	plain, err := Sweep(testIDs, Options{Workers: 4, Bench: quickOpt()})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Sweep(testIDs, Options{Workers: 4, Bench: quickOpt(), Cache: st})
	if err != nil {
		t.Fatal(err)
	}
	if cold.FromStore != 0 || cold.Simulated == 0 {
		t.Fatalf("cold run provenance wrong: %s", cold.Provenance())
	}
	if got, want := renderAll(t, cold), renderAll(t, plain); !bytes.Equal(got, want) {
		t.Fatalf("cold cached sweep differs from uncached sweep:\n%s\n---\n%s", got, want)
	}

	before := bench.Executions()
	warm, err := Sweep(testIDs, Options{Workers: 4, Bench: quickOpt(), Cache: st})
	if err != nil {
		t.Fatal(err)
	}
	if simulated := bench.Executions() - before; simulated != 0 {
		t.Fatalf("warm sweep executed %d simulations, want 0", simulated)
	}
	if warm.Simulated != 0 || warm.FromStore != cold.Simulated {
		t.Fatalf("warm run provenance wrong: %s (cold was %s)", warm.Provenance(), cold.Provenance())
	}
	if got, want := renderAll(t, warm), renderAll(t, plain); !bytes.Equal(got, want) {
		t.Fatalf("warm cached sweep differs from uncached sweep:\n%s\n---\n%s", got, want)
	}
	if warm.CacheErrors != 0 {
		t.Fatalf("warm sweep reported %d cache errors", warm.CacheErrors)
	}
}

// TestCacheCorruptEntryResimulated corrupts one entry of a warm cache:
// the sweep must notice (CacheErrors), re-simulate exactly that run,
// heal the entry, and still produce identical bytes.
func TestCacheCorruptEntryResimulated(t *testing.T) {
	st := openStore(t)
	cold, err := Sweep([]string{"fig6a"}, Options{Workers: 2, Bench: quickOpt(), Cache: st})
	if err != nil {
		t.Fatal(err)
	}
	victim := cold.Figures[0].Runs[0].Key
	if err := os.WriteFile(st.Path(victim), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	before := bench.Executions()
	warm, err := Sweep([]string{"fig6a"}, Options{Workers: 2, Bench: quickOpt(), Cache: st})
	if err != nil {
		t.Fatal(err)
	}
	if simulated := bench.Executions() - before; simulated != 1 {
		t.Fatalf("corrupt-entry sweep executed %d simulations, want exactly 1", simulated)
	}
	if warm.Simulated != 1 || warm.CacheErrors != 1 {
		t.Fatalf("corrupt-entry provenance wrong: %s, cacheErrors=%d", warm.Provenance(), warm.CacheErrors)
	}
	if got, want := renderAll(t, warm), renderAll(t, cold); !bytes.Equal(got, want) {
		t.Fatal("re-simulated sweep output differs")
	}
	// The slot healed: a third sweep is fully warm.
	third, err := Sweep([]string{"fig6a"}, Options{Workers: 2, Bench: quickOpt(), Cache: st})
	if err != nil {
		t.Fatal(err)
	}
	if third.Simulated != 0 || third.CacheErrors != 0 {
		t.Fatalf("healed sweep provenance wrong: %s, cacheErrors=%d", third.Provenance(), third.CacheErrors)
	}
}

// TestCacheKeyedOnOptions checks the cache cannot cross-talk between
// sweeps with different simulation inputs: changing jitter misses,
// returning to the original hits again.
func TestCacheKeyedOnOptions(t *testing.T) {
	st := openStore(t)
	if _, err := Sweep([]string{"fig6a"}, Options{Workers: 2, Bench: quickOpt(), Cache: st}); err != nil {
		t.Fatal(err)
	}
	jopt := quickOpt()
	jopt.Jitter = 0.05
	jres, err := Sweep([]string{"fig6a"}, Options{Workers: 2, Bench: jopt, Cache: st})
	if err != nil {
		t.Fatal(err)
	}
	if jres.FromStore != 0 {
		t.Fatalf("jittered sweep hit the jitter-free cache: %s", jres.Provenance())
	}
	back, err := Sweep([]string{"fig6a"}, Options{Workers: 2, Bench: quickOpt(), Cache: st})
	if err != nil {
		t.Fatal(err)
	}
	if back.Simulated != 0 {
		t.Fatalf("original options no longer fully cached: %s", back.Provenance())
	}
}

// TestResumeFromPartialReport simulates the resume workflow: a sweep
// of a subset of figures produces a v3 report; resuming a larger sweep
// from it re-runs only the missing figure's specs.
func TestResumeFromPartialReport(t *testing.T) {
	partial, err := Sweep([]string{"fig6a"}, Options{Workers: 2, Bench: quickOpt()})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := partial.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	rep, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	prior := NewPrior(rep)
	if len(prior) != len(partial.Figures[0].Runs) {
		t.Fatalf("prior indexed %d runs, want %d", len(prior), len(partial.Figures[0].Runs))
	}

	full := []string{"fig6a", "abl-chanapi"}
	want, err := Sweep(full, Options{Workers: 2, Bench: quickOpt()})
	if err != nil {
		t.Fatal(err)
	}
	before := bench.Executions()
	resumed, err := Sweep(full, Options{Workers: 2, Bench: quickOpt(), Prior: prior})
	if err != nil {
		t.Fatal(err)
	}
	ablRuns := len(want.Figures[1].Runs)
	if simulated := int(bench.Executions() - before); simulated != ablRuns {
		t.Fatalf("resumed sweep executed %d simulations, want %d (only the missing figure)", simulated, ablRuns)
	}
	if resumed.FromPrior != len(prior) || resumed.Simulated != ablRuns {
		t.Fatalf("resume provenance wrong: %s", resumed.Provenance())
	}
	if got, wantB := renderAll(t, resumed), renderAll(t, want); !bytes.Equal(got, wantB) {
		t.Fatalf("resumed sweep output differs from full sweep:\n%s\n---\n%s", got, wantB)
	}
}

// TestResumeIgnoresMismatchedReport: a report taken under different
// simulation inputs (here: jitter) must not satisfy any spec — the
// fingerprint mismatch forces re-simulation.
func TestResumeIgnoresMismatchedReport(t *testing.T) {
	jopt := quickOpt()
	jopt.Jitter = 0.05
	jittered, err := Sweep([]string{"fig6a"}, Options{Workers: 2, Bench: jopt})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := jittered.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	rep, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Sweep([]string{"fig6a"}, Options{Workers: 2, Bench: quickOpt(), Prior: NewPrior(rep)})
	if err != nil {
		t.Fatal(err)
	}
	if res.FromPrior != 0 {
		t.Fatalf("jittered report satisfied %d jitter-free specs", res.FromPrior)
	}
}

// TestResumeSkipsFailedRuns: a v3 run stripped of its key — the way to
// mark a run failed and force its re-run — must be re-run even though
// the rest of its record matches: resume reuses a run only by its
// fingerprint.
func TestResumeSkipsFailedRuns(t *testing.T) {
	res, err := Sweep([]string{"fig6a"}, Options{Workers: 2, Bench: quickOpt()})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		edit func(*ReportRun)
	}{
		{"keyless", func(r *ReportRun) { r.Key = "" }},
	} {
		t.Run(c.name, func(t *testing.T) {
			rep, err := ReadJSON(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			c.edit(&rep.Figures[0].Runs[0])
			prior := NewPrior(rep)
			if n := len(res.Figures[0].Runs) - 1; len(prior) != n {
				t.Fatalf("prior indexed %d runs, want %d", len(prior), n)
			}
			resumed, err := Sweep([]string{"fig6a"}, Options{Workers: 2, Bench: quickOpt(), Prior: prior})
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Simulated != 1 || resumed.FromPrior != len(prior) || resumed.Figures[0].Runs[0].Source != SourceSim {
				t.Fatalf("resume provenance wrong: %s", resumed.Provenance())
			}
			if got, want := renderAll(t, resumed), renderAll(t, res); !bytes.Equal(got, want) {
				t.Fatal("resumed sweep output differs")
			}
		})
	}
}

// TestResumeWritesThroughToStore: resumed points should seed the run
// store, so the report becomes unnecessary after one resumed sweep.
func TestResumeWritesThroughToStore(t *testing.T) {
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
	st := openStore(t)
	first, err := Sweep([]string{"fig6a"}, Options{Workers: 2, Bench: quickOpt(), Cache: st, Prior: NewPrior(rep)})
	if err != nil {
		t.Fatal(err)
	}
	if first.FromPrior == 0 || first.Simulated != 0 {
		t.Fatalf("first resume provenance wrong: %s", first.Provenance())
	}
	// Without the prior, the store alone must now answer everything.
	second, err := Sweep([]string{"fig6a"}, Options{Workers: 2, Bench: quickOpt(), Cache: st})
	if err != nil {
		t.Fatal(err)
	}
	if second.FromStore != first.FromPrior || second.Simulated != 0 {
		t.Fatalf("store not seeded by resume: %s", second.Provenance())
	}
}

// TestWriteExplain sanity-checks the human provenance rendering.
func TestWriteExplain(t *testing.T) {
	st := openStore(t)
	if _, err := Sweep([]string{"fig6a"}, Options{Workers: 2, Bench: quickOpt(), Cache: st}); err != nil {
		t.Fatal(err)
	}
	warm, err := Sweep([]string{"fig6a"}, Options{Workers: 2, Bench: quickOpt(), Cache: st})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	warm.WriteExplain(&buf)
	out := buf.String()
	for _, want := range []string{"0 simulated", "store", warm.Figures[0].Runs[0].Key, "fig6a/"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("explain output missing %q:\n%s", want, out)
		}
	}
}

// TestResumeExactWriteThroughKeepsWall: a fingerprint-exact resumed
// point lands in the store with the original simulation's wall cost,
// not the microseconds the lookup took.
func TestResumeExactWriteThroughKeepsWall(t *testing.T) {
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
	st := openStore(t)
	if _, err := Sweep([]string{"fig6a"}, Options{Workers: 2, Bench: quickOpt(), Cache: st, Prior: NewPrior(rep)}); err != nil {
		t.Fatal(err)
	}
	run0 := rep.Figures[0].Runs[0]
	data, err := os.ReadFile(st.Path(run0.Key))
	if err != nil {
		t.Fatalf("exact resume hit not written through: %v", err)
	}
	var entry struct {
		WallNS int64 `json:"wall_ns"`
	}
	if err := json.Unmarshal(data, &entry); err != nil {
		t.Fatal(err)
	}
	if entry.WallNS != run0.WallNS {
		t.Fatalf("store entry wall_ns = %d, want the report's original %d", entry.WallNS, run0.WallNS)
	}
}

// TestStoreBeatsPrior pins the lookup order: store entries are keyed
// on the current fingerprint (always semantics-current), so a warm
// store must win over a prior report even when both could answer.
func TestStoreBeatsPrior(t *testing.T) {
	st := openStore(t)
	cold, err := Sweep([]string{"fig6a"}, Options{Workers: 2, Bench: quickOpt(), Cache: st})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cold.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	rep, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Sweep([]string{"fig6a"}, Options{Workers: 2, Bench: quickOpt(), Cache: st, Prior: NewPrior(rep)})
	if err != nil {
		t.Fatal(err)
	}
	if res.FromStore != len(cold.Figures[0].Runs) || res.FromPrior != 0 {
		t.Fatalf("store did not win over prior: %s", res.Provenance())
	}
}

// TestWarmReportKeepsSimulationCost: a report written from a warm
// sweep must carry each run's original simulation cost, not the
// microseconds the store lookup took — otherwise resuming that report
// into a fresh cache would launder lookup times into the store's
// saved-cost provenance.
func TestWarmReportKeepsSimulationCost(t *testing.T) {
	st := openStore(t)
	cold, err := Sweep([]string{"fig6a"}, Options{Workers: 2, Bench: quickOpt(), Cache: st})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Sweep([]string{"fig6a"}, Options{Workers: 2, Bench: quickOpt(), Cache: st})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := warm.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	rep, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, run := range rep.Figures[0].Runs {
		coldRun := cold.Figures[0].Runs[i]
		if run.WallNS != coldRun.SimWallNS {
			t.Fatalf("warm report run %s wall_ns = %d, want the cold simulation's %d",
				coldRun.Spec.Name(), run.WallNS, coldRun.SimWallNS)
		}
		if run.WallNS <= 0 {
			t.Fatalf("warm report run %s has non-positive wall_ns %d", coldRun.Spec.Name(), run.WallNS)
		}
	}
}
