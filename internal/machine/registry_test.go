package machine

import (
	"strings"
	"testing"

	"gat/internal/netsim"
)

func TestBuiltinProfilesBuildAndValidate(t *testing.T) {
	ps := Profiles()
	if len(ps) < 3 {
		t.Fatalf("want >= 3 built-in profiles, got %d", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if seen[p.Name] {
			t.Fatalf("duplicate profile %q", p.Name)
		}
		seen[p.Name] = true
		for _, nodes := range []int{1, 2, 16} {
			cfg, err := BuildProfile(p.Name, nodes)
			if err != nil {
				t.Fatalf("%s at %d nodes: %v", p.Name, nodes, err)
			}
			m, err := New(cfg)
			if err != nil {
				t.Fatalf("%s at %d nodes: %v", p.Name, nodes, err)
			}
			if m.Procs() != nodes*cfg.GPUsPerNode {
				t.Fatalf("%s: procs = %d", p.Name, m.Procs())
			}
		}
	}
	for _, want := range []string{
		"summit", "perlmutter", "frontier",
		"summit-tapered-2x", "summit-tapered-4x",
		"perlmutter-dragonfly", "frontier-dragonfly",
	} {
		if !seen[want] {
			t.Fatalf("missing built-in profile %q", want)
		}
	}
}

// TestFabricProfiles pins the fabric-backed variants: tapered profiles
// attach a tapered fat tree, dragonfly profiles switch topology, and
// the base profiles they wrap stay NIC-only and untouched — their
// cached results must survive this PR.
func TestFabricProfiles(t *testing.T) {
	cases := []struct {
		name, topo string
		taper      float64
	}{
		{"summit-tapered-2x", "fattree", 2},
		{"summit-tapered-4x", "fattree", 4},
		{"perlmutter-dragonfly", netsim.TopoDragonfly, 2},
		{"frontier-dragonfly", netsim.TopoDragonfly, 2},
	}
	for _, c := range cases {
		cfg, err := BuildProfile(c.name, 4)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if cfg.Fabric == nil || cfg.Fabric.Taper != c.taper {
			t.Errorf("%s: fabric = %+v, want taper %g", c.name, cfg.Fabric, c.taper)
		}
		wantTopo := c.topo
		gotTopo := cfg.Net.Topology
		if gotTopo == "" {
			gotTopo = "fattree"
		}
		if gotTopo != wantTopo {
			t.Errorf("%s: topology = %q, want %q", c.name, gotTopo, wantTopo)
		}
	}
	for _, base := range []string{"summit", "perlmutter", "frontier"} {
		cfg, err := BuildProfile(base, 4)
		if err != nil {
			t.Fatalf("%s: %v", base, err)
		}
		if cfg.Fabric != nil || cfg.Net.Topology != "" {
			t.Errorf("base profile %s grew fabric/topology settings; that would invalidate its cached runs", base)
		}
	}
}

func TestOnlySummitIsCalibrated(t *testing.T) {
	for _, p := range Profiles() {
		if got, want := p.Calibrated, p.Name == "summit"; got != want {
			t.Errorf("%s: Calibrated = %v, want %v", p.Name, got, want)
		}
	}
}

func TestProfileByNameUnknown(t *testing.T) {
	_, err := ProfileByName("nope")
	if err == nil || !strings.Contains(err.Error(), "have:") {
		t.Fatalf("unknown profile error should list known profiles, got %v", err)
	}
	if _, err := BuildProfile("nope", 4); err == nil {
		t.Fatal("BuildProfile of unknown profile should error")
	}
}

func TestProfilesDiffer(t *testing.T) {
	// The machine dimension must be consequential: the profiles model
	// different hardware, so a timed transfer or kernel differs.
	s, _ := BuildProfile("summit", 1)
	f, _ := BuildProfile("frontier", 1)
	if s.GPUsPerNode == f.GPUsPerNode && s.GPU.MemBandwidth == f.GPU.MemBandwidth {
		t.Fatal("summit and frontier profiles are indistinguishable")
	}
	p, _ := BuildProfile("perlmutter", 1)
	if p.Net.InjectionBW == s.Net.InjectionBW {
		t.Fatal("perlmutter should not share Summit's injection bandwidth")
	}
}
