package app

import (
	"strings"
	"testing"

	"gat/internal/jacobi"
	"gat/internal/machine"
	"gat/internal/netsim"
	"gat/internal/sim"
)

func summitMachine(t *testing.T, nodes int) *machine.Machine {
	t.Helper()
	cfg, err := machine.BuildProfile("summit", nodes)
	if err != nil {
		t.Fatal(err)
	}
	return machine.MustNew(cfg)
}

func TestRegistryLookup(t *testing.T) {
	for _, name := range []string{"jacobi3d", "minimd", "ring"} {
		a, err := ByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, a.Name())
		}
		if len(a.Variants()) == 0 {
			t.Fatalf("%s: no variants", name)
		}
	}
	if _, err := ByName("nope"); err == nil || !strings.Contains(err.Error(), "have:") {
		t.Fatalf("unknown app error should list known apps, got %v", err)
	}
}

func TestUniqueAppNames(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range Apps() {
		if seen[a.Name()] {
			t.Fatalf("duplicate app %q", a.Name())
		}
		seen[a.Name()] = true
	}
}

// TestEveryVariantRuns executes one tiny run of every variant of every
// registered app on a one-node Summit machine and checks the metrics
// are sane.
func TestEveryVariantRuns(t *testing.T) {
	for _, a := range Apps() {
		for _, v := range a.Variants() {
			p := a.Defaults(1)
			p.Warmup, p.Iters = 1, 2
			if p.Global != ([3]int{}) {
				p.Global = [3]int{96, 96, 96} // keep jacobi runs tiny
			}
			run, err := a.BuildRun(summitMachine(t, 1), v, p)
			if err != nil {
				t.Fatalf("%s/%s: %v", a.Name(), v, err)
			}
			m := run()
			if m.TimePerIter <= 0 || m.Total <= 0 || m.Kernels == 0 {
				t.Fatalf("%s/%s: implausible metrics %+v", a.Name(), v, m)
			}
		}
	}
}

func TestUnknownVariantErrors(t *testing.T) {
	for _, a := range Apps() {
		_, err := a.BuildRun(summitMachine(t, 1), "no-such-variant", a.Defaults(1))
		if err == nil || !strings.Contains(err.Error(), "no-such-variant") {
			t.Fatalf("%s: want unknown-variant error, got %v", a.Name(), err)
		}
	}
}

// TestJacobiFusionParsedForEveryVariant: BuildRun rejects a malformed
// fusion strategy on every jacobi3d variant, the MPI ones included,
// which ignore a well-formed one.
func TestJacobiFusionParsedForEveryVariant(t *testing.T) {
	a, err := ByName("jacobi3d")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range a.Variants() {
		for _, c := range []struct {
			fusion  string
			wantErr bool
		}{{"", false}, {"none", false}, {"C", false}, {"Z", true}} {
			p := Params{Global: [3]int{96, 96, 96}, ODF: 1, Fusion: c.fusion}
			_, err := a.BuildRun(summitMachine(t, 1), v, p)
			if got := err != nil; got != c.wantErr {
				t.Errorf("%s with fusion %q: err = %v, want error %v", v, c.fusion, err, c.wantErr)
			}
			if c.wantErr && err != nil && !strings.Contains(err.Error(), `"Z"`) {
				t.Errorf("%s: fusion error %q does not name the strategy", v, err)
			}
		}
	}
}

// TestJacobiAppMatchesDirectRun pins the adapter to the underlying
// proxy: the app path and a direct jacobi.RunCharm must produce the
// same simulated time on identical machines.
func TestJacobiAppMatchesDirectRun(t *testing.T) {
	a, err := ByName("jacobi3d")
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Global: [3]int{192, 192, 192}, ODF: 2, Warmup: 1, Iters: 2}
	run, err := a.BuildRun(summitMachine(t, 1), "charm-d", p)
	if err != nil {
		t.Fatal(err)
	}
	viaApp := run()
	direct := directCharmD(t, p)
	if viaApp.TimePerIter != direct {
		t.Fatalf("app path %v != direct path %v", viaApp.TimePerIter, direct)
	}
}

func directCharmD(t *testing.T, p Params) sim.Time {
	t.Helper()
	cfg := jacobi.Config{Global: p.Global, Warmup: p.Warmup, Iters: p.Iters}
	co := jacobi.CharmOpts{ODF: p.ODF, GPUAware: true, Optimized: true}
	return jacobi.RunCharm(summitMachine(t, 1), cfg, co).TimePerIter
}

// TestMiniMDLoadBalancingHelps checks the minimd app's reason to
// exist: its non-uniform density profile must leave room for the
// balancer to improve on static placement.
func TestMiniMDLoadBalancingHelps(t *testing.T) {
	a, err := ByName("minimd")
	if err != nil {
		t.Fatal(err)
	}
	time := func(variant string) int64 {
		run, err := a.BuildRun(summitMachine(t, 2), variant, Params{ODF: 4, Iters: 12})
		if err != nil {
			t.Fatal(err)
		}
		return int64(run().Total)
	}
	static, lb := time("charm-static"), time("charm-lb")
	if lb >= static {
		t.Fatalf("load balancing did not help: static %d, lb %d", static, lb)
	}
}

// TestMetricsCarryLinkUtilization checks the congestion plumbing end
// to end at the app layer: on a machine with a heavily tapered fabric
// and cross-group traffic, run metrics must report nonzero fabric-link
// utilization; on the NIC-only Summit they must report zero.
func TestMetricsCarryLinkUtilization(t *testing.T) {
	tapered := machine.Summit(4)
	tapered.Net.PodSize = 2 // two pods at test scale, so halos cross groups
	tapered.Fabric = &netsim.FabricConfig{Taper: 8, UplinksPerPod: 1}
	for _, name := range []string{"jacobi3d", "minimd"} {
		a, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p := a.Defaults(4)
		p.Warmup, p.Iters = 1, 2
		if p.Global != ([3]int{}) {
			p.Global = [3]int{96, 96, 192}
		}
		run, err := a.BuildRun(machine.MustNew(tapered), a.Variants()[0], p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m := run()
		if m.MaxLinkUtil <= 0 || m.MeanLinkUtil <= 0 {
			t.Errorf("%s on a tapered fabric: MaxLinkUtil=%g MeanLinkUtil=%g, want > 0",
				name, m.MaxLinkUtil, m.MeanLinkUtil)
		}
		if m.MeanLinkUtil > m.MaxLinkUtil {
			t.Errorf("%s: mean link util %g exceeds max %g", name, m.MeanLinkUtil, m.MaxLinkUtil)
		}
		run, err = a.BuildRun(summitMachine(t, 4), a.Variants()[0], p)
		if err != nil {
			t.Fatal(err)
		}
		if m := run(); m.MaxLinkUtil != 0 || m.MeanLinkUtil != 0 {
			t.Errorf("%s on NIC-only Summit: link util %g/%g, want zeros", name, m.MaxLinkUtil, m.MeanLinkUtil)
		}
	}
}

// TestAppIdentity pins the versioned identity strings that enter run
// fingerprints: identities are distinct, and jacobi3d's is at v1.
func TestAppIdentity(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range Apps() {
		id := Identity(a)
		if id == "" || seen[id] {
			t.Errorf("app %s has empty or duplicate identity %q", a.Name(), id)
		}
		seen[id] = true
	}
	j, err := ByName("jacobi3d")
	if err != nil {
		t.Fatal(err)
	}
	if got := Identity(j); got != "jacobi3d@v1" {
		t.Errorf("jacobi3d identity = %q, want jacobi3d@v1 (bumping it invalidates all cached jacobi3d runs)", got)
	}
}
