package bench

import (
	"testing"

	"gat/internal/app"
	"gat/internal/machine"
)

// TestScenarioRegistryInvariants asserts what cmd/sweep -list promises:
// unique names, and a registry spanning several apps and machine
// profiles beyond the paper's single (jacobi3d, summit) pair.
func TestScenarioRegistryInvariants(t *testing.T) {
	seen := map[string]bool{}
	appsUsed := map[string]bool{}
	machinesUsed := map[string]bool{}
	for _, s := range Scenarios() {
		if seen[s.Name] {
			t.Errorf("duplicate scenario name %q", s.Name)
		}
		seen[s.Name] = true
		if s.App != "" {
			if _, err := app.ByName(s.App); err != nil {
				t.Errorf("scenario %q: %v", s.Name, err)
			}
			appsUsed[s.App] = true
		}
		machinesUsed[s.Machine] = true
	}
	if len(seen) < 12 {
		t.Errorf("registry has %d scenarios, want >= 12", len(seen))
	}
	if len(appsUsed) < 2 {
		t.Errorf("scenarios span %d apps, want >= 2", len(appsUsed))
	}
	if len(machinesUsed) < 3 {
		t.Errorf("scenarios span %d machine profiles, want >= 3", len(machinesUsed))
	}
}

// TestAllScenariosBuildNonEmptyPlans compiles every registered
// scenario (axis + series + app + machine resolution, no simulation)
// and checks the plan shape.
func TestAllScenariosBuildNonEmptyPlans(t *testing.T) {
	for _, s := range Scenarios() {
		p, err := s.Plan(quickOpt(), Overrides{})
		if err != nil {
			t.Errorf("%s: %v", s.Name, err)
			continue
		}
		if len(p.Specs) == 0 {
			t.Errorf("%s: empty plan", s.Name)
		}
		if len(p.Skeleton.Series) == 0 {
			t.Errorf("%s: no series", s.Name)
		}
		if p.Skeleton.ID != s.Name {
			t.Errorf("%s: plan id %q", s.Name, p.Skeleton.ID)
		}
		for _, spec := range p.Specs {
			if spec.Scenario != s.Name || spec.Machine == "" {
				t.Errorf("%s: spec %s missing composition metadata: %+v", s.Name, spec.Name(), spec)
			}
		}
	}
}

// TestScenarioMachineOverride runs one Jacobi figure cell on a
// non-Summit profile and checks the override is both recorded and
// consequential.
func TestScenarioMachineOverride(t *testing.T) {
	opt := Options{MaxNodes: 1, Warmup: 1, Iters: 2}
	base, err := PlanScenario("fig7b", opt, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	over, err := PlanScenario("fig7b", opt, Overrides{Machine: "frontier"})
	if err != nil {
		t.Fatal(err)
	}
	if base.Specs[0].Machine != "summit" || over.Specs[0].Machine != "frontier" {
		t.Fatalf("machine metadata: base %q, override %q",
			base.Specs[0].Machine, over.Specs[0].Machine)
	}
	a, b := base.Specs[0].Execute(), over.Specs[0].Execute()
	if a.Value <= 0 || b.Value <= 0 {
		t.Fatalf("non-positive values: %v, %v", a.Value, b.Value)
	}
	if a.Value == b.Value {
		t.Fatal("frontier profile produced identical timing to summit; override not applied")
	}
}

// TestScenarioAppOverride retargets the generic scaling scenario and
// checks fixed-app scenarios reject -app.
func TestScenarioAppOverride(t *testing.T) {
	p, err := PlanScenario("scaling", Options{MaxNodes: 1, Iters: 2}, Overrides{App: "ring"})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Skeleton.Series) != 1 || p.Skeleton.Series[0].Name != "ring" {
		t.Fatalf("scaling over ring should have the ring variant as its only series: %+v", p.Skeleton.Series)
	}
	if pt := p.Specs[0].Execute(); pt.Value <= 0 {
		t.Fatalf("ring scaling cell returned %v", pt.Value)
	}
	if _, err := PlanScenario("fig6a", Options{}, Overrides{App: "minimd"}); err == nil {
		t.Fatal("fixed-app scenario should reject an app override")
	}
	if _, err := PlanScenario("scaling", Options{}, Overrides{App: "nope"}); err == nil {
		t.Fatal("unknown app override should error")
	}
	if _, err := PlanScenario("fig6a", Options{}, Overrides{Machine: "nope"}); err == nil {
		t.Fatal("unknown machine override should error")
	}
}

// TestIterationResolution pins the -iters/-warmup semantics: sweep
// options override even an app's non-zero defaults, and the recorded
// spec metadata reflects each app's own defaults otherwise.
func TestIterationResolution(t *testing.T) {
	// ring defaults to 20 steps; -iters must still win.
	p, err := PlanScenario("ring-odf", Options{Iters: 3}, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Specs[0].Iters; got != 3 {
		t.Fatalf("ring-odf spec iters with -iters 3: got %d", got)
	}
	// Without overrides, spec metadata records the app's defaults —
	// minimd runs 12 timesteps with no warmup, not jacobi's 3+10.
	p, err = PlanScenario("minimd-lb", Options{MaxNodes: 1}, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Specs[0]; got.Iters != 12 || got.Warmup != 0 {
		t.Fatalf("minimd-lb spec metadata: warmup=%d iters=%d, want 0/12", got.Warmup, got.Iters)
	}
	p, err = PlanScenario("fig6a", Options{MaxNodes: 1}, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Specs[0]; got.Iters != 10 || got.Warmup != 3 {
		t.Fatalf("fig6a spec metadata: warmup=%d iters=%d, want 3/10", got.Warmup, got.Iters)
	}
}

// TestNonSummitNonJacobiEndToEnd is the acceptance combination: a
// minimd scenario on the frontier profile, run through the plan path.
func TestNonSummitNonJacobiEndToEnd(t *testing.T) {
	fig, err := generate("minimd-lb", Options{MaxNodes: 1, Iters: 4}, Overrides{Machine: "frontier"})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("want 2 series, got %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		for _, pt := range s.Points {
			if pt.Value <= 0 {
				t.Fatalf("%s: non-positive time %v", s.Name, pt.Value)
			}
		}
	}
}

// TestRunWithMemoKeysMutatedConfig: RunWith files a run under the
// machine configuration its hook produced. Two different mutations
// both simulate, repeating one is answered from the memo, and Run
// shares its key with RunWith(nil, …).
func TestRunWithMemoKeysMutatedConfig(t *testing.T) {
	opt := Options{Warmup: 1, Iters: 2}.WithMemo()
	c := claimCell(opt, "memo", 2)
	p := app.Params{Global: [3]int{96, 96, 192}}
	scaleBW := func(f float64) func(*machine.Config) {
		return func(cfg *machine.Config) { cfg.Net.InjectionBW *= f }
	}
	reused := func(want int) {
		t.Helper()
		if got := opt.Reused(); got != want {
			t.Fatalf("Reused = %d, want %d", got, want)
		}
	}

	half := c.RunWith(scaleBW(0.5), "mpi-d", p)
	quarter := c.RunWith(scaleBW(0.25), "mpi-d", p)
	reused(0) // a key from the unmutated config would answer the second
	if half.TimePerIter == quarter.TimePerIter {
		t.Fatalf("mutations did not reach the machine: both ran %v", half.TimePerIter)
	}
	if again := c.RunWith(scaleBW(0.25), "mpi-d", p); again != quarter {
		t.Fatalf("repeated RunWith = %+v, want %+v", again, quarter)
	}
	reused(1)

	plain := c.Run("mpi-d", p)
	reused(1)
	if plain.TimePerIter == half.TimePerIter || plain.TimePerIter == quarter.TimePerIter {
		t.Fatalf("unmutated run matched a mutated one: %v", plain.TimePerIter)
	}
	if again := c.RunWith(nil, "mpi-d", p); again != plain {
		t.Fatalf("RunWith(nil) = %+v, want Run's %+v", again, plain)
	}
	reused(2)
}
