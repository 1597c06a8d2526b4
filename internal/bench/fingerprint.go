package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"sync/atomic"

	"gat/internal/sim"
)

// Run fingerprinting: the content address of a simulation result. Two
// specs share a fingerprint exactly when they must produce the same
// figure point, so the fingerprint is the cache key of the run store
// (internal/sweep/store) and the precision anchor of sweep resume.
//
// The canonical input covers everything that determines a run's
// simulated output:
//
//   - the model salt (sim.EngineVersion), the one version value in the
//     key, bumped by every change to what any run simulates;
//   - the experiment coordinates: scenario, app, machine profile,
//     series, x, nodes;
//   - the resolved iteration counts, the per-run seed, and the jitter
//     fraction.
//
// Host-side facts (worker count, wall-clock, output format) are
// deliberately absent: they never influence figure values.

// Fingerprint returns the run's content address: 32 lower-case hex
// characters (the first 16 bytes of a SHA-256 over the canonical input
// string). Stable across processes, hosts and Go versions.
func (s RunSpec) Fingerprint() string {
	return s.fingerprint(sim.EngineVersion)
}

// fingerprint computes the content address under an explicit engine
// salt; split out so tests can prove that bumping the salt invalidates
// every key.
func (s RunSpec) fingerprint(salt string) string {
	h := sha256.New()
	fmt.Fprintf(h, "gat-run|engine=%s|scenario=%s|app=%s|machine=%s|series=%s|x=%d|nodes=%d|warmup=%d|iters=%d|seed=%d|jitter=%s",
		salt, s.Scenario, s.App, s.Machine, s.Series,
		s.X, s.Nodes, s.Warmup, s.Iters, s.Seed,
		strconv.FormatFloat(s.Jitter, 'g', -1, 64))
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}

// executions counts RunSpec.Execute calls process-wide. It is the
// run-counter hook behind Executions, letting tests and smoke checks
// assert that a warm-cache sweep performed zero engine simulations.
var executions atomic.Uint64

// Executions returns the number of RunSpec simulations executed by
// this process so far (monotonic; cached or resumed runs don't count).
func Executions() uint64 { return executions.Load() }
