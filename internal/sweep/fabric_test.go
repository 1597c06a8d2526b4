package sweep

import (
	"bytes"
	"strings"
	"testing"

	"gat/internal/bench"
)

// fabricScenarioIDs are the topology/congestion scenarios introduced
// with the contention fabric: the taper sweeps and the dragonfly-
// backed machine variants.
var fabricScenarioIDs = []string{
	"jacobi-taper", "jacobi-taper-msgsize", "minimd-taper",
	"jacobi-dragonfly", "minimd-dragonfly",
}

// TestFabricScenariosParallelEquality is the serial-vs-parallel golden
// for the new tapered/dragonfly scenarios: -j 4 must produce the exact
// bytes of the serial reference, tables and CSV alike, just as the
// pre-fabric scenarios are pinned by TestGoldenBackCompat.
func TestFabricScenariosParallelEquality(t *testing.T) {
	opt := bench.Options{MaxNodes: 2, Iters: 2}
	for _, csv := range []bool{false, true} {
		serial := sweepBytes(t, fabricScenarioIDs, opt, 1, csv)
		if len(serial) == 0 {
			t.Fatal("fabric scenarios produced no output")
		}
		parallel := sweepBytes(t, fabricScenarioIDs, opt, 4, csv)
		if !bytes.Equal(serial, parallel) {
			t.Fatalf("csv=%v: -j 4 output differs from serial at line %d\n--- serial ---\n%s\n--- parallel ---\n%s",
				csv, diffLine(serial, parallel), serial, parallel)
		}
	}
}

// TestContendedFabricParallelEquality runs the taper sweep at its full
// two-pod scale — where the shared uplinks are genuinely contended,
// unlike the MaxNodes-2 case whose single pod leaves the fabric idle —
// and checks both that -j 4 reproduces the serial bytes and that the
// fabric really saw traffic (nonzero link utilization), so a
// nondeterministic fabric-path ordering bug cannot hide behind an
// inert fabric.
func TestContendedFabricParallelEquality(t *testing.T) {
	opt := bench.Options{MaxNodes: 36, Iters: 2, Warmup: 1}
	ids := []string{"jacobi-taper"}
	serial := sweepBytes(t, ids, opt, 1, false)
	parallel := sweepBytes(t, ids, opt, 4, false)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("-j 4 output differs from serial at line %d under fabric contention\n--- serial ---\n%s\n--- parallel ---\n%s",
			diffLine(serial, parallel), serial, parallel)
	}
	res, err := Sweep(ids, Options{Workers: 4, Bench: opt})
	if err != nil {
		t.Fatal(err)
	}
	contended := 0
	for _, run := range res.Figures[0].Runs {
		if run.Point.MaxLinkUtil > 0 {
			contended++
		}
	}
	if contended == 0 {
		t.Fatal("36-node taper sweep reported zero link utilization everywhere; the contention gate is running against an idle fabric")
	}
}

// utilResult builds a minimal synthetic sweep result with one verified
// run carrying a fabric congestion summary.
func utilResult() Result {
	spec := bench.RunSpec{
		Scenario: "jacobi-taper", Series: "MPI-H", X: 4, Nodes: 36,
		Warmup: 1, Iters: 2, Seed: 7,
		App: "jacobi3d", Machine: "summit",
	}
	pt := bench.Point{Nodes: 4, Value: 123.5, MaxLinkUtil: 0.83, MeanLinkUtil: 0.41}
	fig := bench.Figure{
		ID: "jacobi-taper", Title: "t", XLabel: "taper", YLabel: "us",
		Series: []bench.Series{{Name: "MPI-H", Points: []bench.Point{pt}}},
	}
	return Result{
		Workers: 1,
		Figures: []FigureResult{{
			Figure: fig,
			Runs: []Run{{
				Spec: spec, Point: pt, Key: "0123456789abcdef0123456789abcdef",
				Source: SourceSim, SimWallNS: 10,
			}},
		}},
	}
}

// TestLinkUtilInReportAndResume proves the congestion summary survives
// the full provenance loop: the gat-sweep-v3 writer emits it per run,
// ReadJSON+NewPrior recover it, and a resume hit by fingerprint
// returns the point with its utilization intact.
func TestLinkUtilInReportAndResume(t *testing.T) {
	res := utilResult()
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"max_link_util": 0.83`, `"mean_link_util": 0.41`} {
		if !strings.Contains(out, want) {
			t.Fatalf("v3 report missing %q:\n%s", want, out)
		}
	}

	rep, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	prior := NewPrior(rep)
	run := res.Figures[0].Runs[0]
	hit, ok := prior[run.Key]
	if !ok {
		t.Fatal("resume lookup by fingerprint failed")
	}
	if pt := hit.Point(); pt.MaxLinkUtil != 0.83 || pt.MeanLinkUtil != 0.41 {
		t.Fatalf("resume dropped the congestion summary: %+v", pt)
	}
}

// TestExplainShowsNetColumn checks the human provenance table flags
// network-bound runs and dashes out NIC-only ones.
func TestExplainShowsNetColumn(t *testing.T) {
	res := utilResult()
	var buf bytes.Buffer
	res.WriteExplain(&buf)
	out := buf.String()
	if !strings.Contains(out, "NET") || !strings.Contains(out, "83%") {
		t.Fatalf("explain table missing the NET column or the 83%% entry:\n%s", out)
	}
	res.Figures[0].Runs[0].Point.MaxLinkUtil = 0
	buf.Reset()
	res.WriteExplain(&buf)
	if !strings.Contains(buf.String(), " - ") {
		t.Fatalf("explain table should dash out NIC-only runs:\n%s", buf.String())
	}
}
