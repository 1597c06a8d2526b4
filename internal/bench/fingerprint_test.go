package bench

import "testing"

func fpOpt() Options { return Options{MaxNodes: 2, Warmup: 1, Iters: 2} }

func planSpecs(t *testing.T, id string, opt Options, ov Overrides) []RunSpec {
	t.Helper()
	p, err := PlanScenario(id, opt, ov)
	if err != nil {
		t.Fatal(err)
	}
	return p.Specs
}

// TestFingerprintGolden pins the content addresses of representative
// specs. These values are the on-disk cache keys: a diff here means
// every existing run cache is invalidated. That is the correct outcome
// when simulation semantics changed (and sim.EngineVersion was
// bumped), and a bug in the canonicalization otherwise — update the
// constants only in the first case.
func TestFingerprintGolden(t *testing.T) {
	cases := []struct {
		id   string
		ov   Overrides
		want string // fingerprint of the plan's first spec
	}{
		{"fig6a", Overrides{}, "93c4de59703d9273eb46821c73ff64c9"},
		{"abl-chanapi", Overrides{}, "ad96bcc7e44870d0dca236a2fe7b0540"},
		{"fig6a", Overrides{Machine: "perlmutter"}, "8d0ecd5485f130fe292b18e070dc51e2"},
	}
	for _, c := range cases {
		specs := planSpecs(t, c.id, fpOpt(), c.ov)
		if got := specs[0].Fingerprint(); got != c.want {
			t.Errorf("%s (ov %+v): fingerprint = %s, want %s", c.id, c.ov, got, c.want)
		}
	}
}

// TestFingerprintStableAndDistinct checks the two sides of content
// addressing: recompiling the same plan reproduces the same keys, and
// every spec of a multi-figure sweep gets a distinct key.
func TestFingerprintStableAndDistinct(t *testing.T) {
	seen := map[string]string{}
	for _, id := range []string{"fig6a", "fig7b", "abl-chanapi"} {
		a := planSpecs(t, id, fpOpt(), Overrides{})
		b := planSpecs(t, id, fpOpt(), Overrides{})
		for i := range a {
			fa, fb := a[i].Fingerprint(), b[i].Fingerprint()
			if fa != fb {
				t.Fatalf("%s: fingerprint not reproducible: %s vs %s", a[i].Name(), fa, fb)
			}
			if len(fa) != 32 {
				t.Fatalf("%s: fingerprint %q is not 32 hex chars", a[i].Name(), fa)
			}
			if prev, dup := seen[fa]; dup {
				t.Fatalf("fingerprint collision: %s and %s both map to %s", prev, a[i].Name(), fa)
			}
			seen[fa] = a[i].Name()
		}
	}
}

// TestFingerprintSensitivity asserts that each cache-relevant input
// moves the key: jitter, machine override, and iteration counts.
func TestFingerprintSensitivity(t *testing.T) {
	base := planSpecs(t, "fig6a", fpOpt(), Overrides{})[0].Fingerprint()

	jopt := fpOpt()
	jopt.Jitter = 0.05
	if got := planSpecs(t, "fig6a", jopt, Overrides{})[0].Fingerprint(); got == base {
		t.Error("jitter change did not change the fingerprint")
	}
	if got := planSpecs(t, "fig6a", fpOpt(), Overrides{Machine: "perlmutter"})[0].Fingerprint(); got == base {
		t.Error("machine override did not change the fingerprint")
	}
	iopt := fpOpt()
	iopt.Iters = 3
	if got := planSpecs(t, "fig6a", iopt, Overrides{})[0].Fingerprint(); got == base {
		t.Error("iteration count change did not change the fingerprint")
	}
}

// TestFingerprintEngineSaltInvalidates proves the engine-version salt
// is live: the same spec under a bumped salt maps to a different key,
// so semantic engine changes orphan (rather than poison) old caches.
func TestFingerprintEngineSaltInvalidates(t *testing.T) {
	spec := planSpecs(t, "fig6a", fpOpt(), Overrides{})[0]
	a := spec.fingerprint("gat-engine-1")
	b := spec.fingerprint("gat-engine-2")
	if a == b {
		t.Fatal("engine salt bump did not change the fingerprint")
	}
	if spec.Fingerprint() != a {
		t.Fatal("Fingerprint() does not use the current sim.EngineVersion salt")
	}
}

// TestTaperScenarioShapes pins the congestion scenarios' structure:
// the taper axis holds the machine size fixed while x sweeps the
// ratio, and their points carry the fabric congestion summary.
func TestTaperScenarioShapes(t *testing.T) {
	for _, id := range []string{"jacobi-taper", "minimd-taper"} {
		specs := planSpecs(t, id, fpOpt(), Overrides{})
		if len(specs) == 0 {
			t.Fatalf("%s: empty plan", id)
		}
		for _, s := range specs {
			if s.Nodes != specs[0].Nodes {
				t.Fatalf("%s: node count varies along the taper axis (%d vs %d)", id, s.Nodes, specs[0].Nodes)
			}
		}
		if specs[0].X != 1 {
			t.Fatalf("%s: first taper point x=%d, want 1 (the no-contention baseline)", id, specs[0].X)
		}
	}
}

// TestExecutionsCounter checks the run-counter hook: executing a spec
// bumps the process-wide counter by exactly one.
func TestExecutionsCounter(t *testing.T) {
	spec := planSpecs(t, "fig6a", fpOpt(), Overrides{})[0]
	before := Executions()
	spec.Execute()
	if got := Executions() - before; got != 1 {
		t.Fatalf("Executions advanced by %d, want 1", got)
	}
}
