package machine_test

import (
	"testing"

	"gat/internal/app"
	"gat/internal/machine"
	"gat/internal/netsim"
)

// seeded builds profile p at the given size with jitter seed seed.
func seeded(p machine.Profile, nodes int, seed uint64) machine.Config {
	cfg := p.Build(nodes)
	cfg.Net.JitterSeed = seed
	return cfg
}

// TestKeyDropsOnlyUnreadSeeds pins the seed rule of Config.Key. Every
// registered NIC-only profile keys without its seed at JitterFrac 0,
// and wherever a key drops the seed, every jacobi3d variant must run
// identically under seeds 1 and 2: a seed reader that
// netsim.Config.ReadsSeed does not know fails here. Jitter and the
// valiant and adaptive routers read the seed, so there the keys differ.
func TestKeyDropsOnlyUnreadSeeds(t *testing.T) {
	jac, err := app.ByName("jacobi3d")
	if err != nil {
		t.Fatal(err)
	}
	run := func(cfg machine.Config, variant string) app.Metrics {
		p := jac.Defaults(cfg.Nodes)
		p.Warmup, p.Iters = 1, 2
		r, err := jac.BuildRun(machine.MustNew(cfg), variant, p)
		if err != nil {
			t.Fatal(err)
		}
		return r()
	}
	for _, p := range machine.Profiles() {
		a, b := seeded(p, 2, 1), seeded(p, 2, 2)
		if a.Net.JitterFrac != 0 {
			t.Fatalf("%s: profile sets JitterFrac %g; the sweep sets jitter", p.Name, a.Net.JitterFrac)
		}
		if a.Fabric == nil && a.Key() != b.Key() {
			t.Errorf("%s: NIC-only keys differ by seed", p.Name)
		}
		if a.Key() == b.Key() {
			for _, v := range jac.Variants() {
				if ma, mb := run(a, v), run(b, v); ma != mb {
					t.Errorf("%s/%s: keys drop the seed, but seeds 1 and 2 ran differently:\n%+v\n%+v", p.Name, v, ma, mb)
				}
			}
		}
		a.Net.JitterFrac, b.Net.JitterFrac = 0.05, 0.05
		if a.Key() == b.Key() {
			t.Errorf("%s: jittered keys ignore the seed", p.Name)
		}
	}

	df, err := machine.ProfileByName("perlmutter-dragonfly")
	if err != nil {
		t.Fatal(err)
	}
	for _, routing := range []string{netsim.RoutingValiant, netsim.RoutingAdaptive} {
		var keys []machine.Key
		for _, seed := range []uint64{1, 2} {
			cfg := seeded(df, 48, seed)
			fab := *cfg.Fabric
			fab.Routing = routing
			cfg.Fabric = &fab
			keys = append(keys, cfg.Key())
		}
		if keys[0] == keys[1] {
			t.Errorf("perlmutter-dragonfly/%s: keys ignore the seed the router draws from", routing)
		}
	}
}

// TestKeyHoldsFabricByValue: configurations built separately key alike,
// although each carries its own Fabric pointer, and a fabric parameter
// changes the key.
func TestKeyHoldsFabricByValue(t *testing.T) {
	p, err := machine.ProfileByName("summit-tapered-2x")
	if err != nil {
		t.Fatal(err)
	}
	a, b := p.Build(4), p.Build(4)
	if a.Fabric == b.Fabric {
		t.Fatal("want two Fabric pointers")
	}
	if a.Key() != b.Key() {
		t.Error("equal fabrics behind different pointers key differently")
	}
	fab := *b.Fabric
	fab.Taper = 4
	b.Fabric = &fab
	if a.Key() == b.Key() {
		t.Error("a different taper keys alike")
	}
	nic := machine.Summit(4)
	if nic.Key() == a.Key() {
		t.Error("NIC-only and fabric configurations key alike")
	}
}
