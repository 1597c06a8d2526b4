package sweep

import (
	"bytes"
	"strings"
	"testing"

	"gat/internal/bench"
)

// routingScenarioIDs are the route-choice studies introduced with the
// Router layer: minimal vs adaptive under the Jacobi halo exchange,
// and the two synthetic traffic patterns swept over every policy.
var routingScenarioIDs = []string{
	"jacobi-adaptive-vs-minimal", "hotspot", "jacobi-adversarial-mapping",
}

// routingOpt runs the routing scenarios at their full 48-node,
// three-group scale — the smallest machine with a real detour group,
// and the scale where the taper axis genuinely congests the fabric.
func routingOpt() bench.Options {
	return bench.Options{MaxNodes: 48, Iters: 2, Warmup: 1}
}

// TestRoutingScenariosParallelEquality pins the determinism contract
// for the stateful routers at sweep level: the Valiant RNG stream and
// the adaptive penalty table live per run, so -j 4 and -shards 4 must
// reproduce the serial reference byte for byte even while routes are
// being chosen from congestion feedback.
func TestRoutingScenariosParallelEquality(t *testing.T) {
	for _, csv := range []bool{false, true} {
		serial := sweepBytes(t, routingScenarioIDs, routingOpt(), 1, csv)
		if len(serial) == 0 {
			t.Fatal("routing scenarios produced no output")
		}
		parallel := sweepBytes(t, routingScenarioIDs, routingOpt(), 4, csv)
		if !bytes.Equal(serial, parallel) {
			t.Fatalf("csv=%v: -j 4 output differs from serial at line %d\n--- serial ---\n%s\n--- parallel ---\n%s",
				csv, diffLine(serial, parallel), serial, parallel)
		}
		sharded := routingOpt()
		sharded.Shards = 4
		shardedOut := sweepBytes(t, routingScenarioIDs, sharded, 4, csv)
		if !bytes.Equal(serial, shardedOut) {
			t.Fatalf("csv=%v: -shards 4 output differs from serial at line %d\n--- serial ---\n%s\n--- sharded ---\n%s",
				csv, diffLine(serial, shardedOut), serial, shardedOut)
		}
	}
}

// TestAdaptiveBeatsMinimalUnderTaper is the headline acceptance claim:
// in the jacobi-adaptive-vs-minimal scenario, the adaptive series
// reports strictly lower max_link_util than the minimal series at
// every taper >= 4, and the run records carry the routing provenance
// that says which policy produced which number.
func TestAdaptiveBeatsMinimalUnderTaper(t *testing.T) {
	res, err := Sweep([]string{"jacobi-adaptive-vs-minimal"}, Options{Workers: 4, Bench: routingOpt()})
	if err != nil {
		t.Fatal(err)
	}
	util := map[string]map[int]float64{}
	for _, run := range res.Figures[0].Runs {
		if run.Point.Routing == "" {
			t.Fatalf("run %s/x=%d carries no routing provenance", run.Spec.Series, run.Spec.X)
		}
		if util[run.Spec.Series] == nil {
			util[run.Spec.Series] = map[int]float64{}
		}
		util[run.Spec.Series][run.Spec.X] = run.Point.MaxLinkUtil
	}
	for _, taper := range []int{4, 16, 32} {
		min, ok1 := util["Minimal"][taper]
		ad, ok2 := util["Adaptive"][taper]
		if !ok1 || !ok2 {
			t.Fatalf("missing series point at taper %d: %v", taper, util)
		}
		if ad >= min {
			t.Fatalf("taper %d: adaptive max_link_util %.4f >= minimal %.4f; adaptive routing is not relieving congestion", taper, ad, min)
		}
	}
}

// TestRoutingInReportAndStore proves the routing field survives the
// full provenance loop: the gat-sweep-v3 writer emits it per run,
// ReadJSON+NewPrior recover it on resume, and the mirror checks in
// store_test.go cover the cache entry round-trip.
func TestRoutingInReportAndStore(t *testing.T) {
	res := utilResult()
	res.Figures[0].Runs[0].Point.Routing = "adaptive"
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"routing": "adaptive"`) {
		t.Fatalf("v3 report missing the routing field:\n%s", buf.String())
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
	if hit.Point().Routing != "adaptive" {
		t.Fatalf("resume dropped the routing field: %+v", hit)
	}
}
