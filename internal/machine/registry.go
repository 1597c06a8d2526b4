package machine

import (
	"fmt"
	"sort"
	"strings"

	"gat/internal/gpu"
	"gat/internal/netsim"
)

// Profile is a named cluster configuration selectable by experiments:
// the machine dimension of a scenario. Build returns the Config for a
// given node count; every registered profile's output must pass
// Config.Validate for any positive node count.
type Profile struct {
	// Name is the registry key (lower-case, stable across releases).
	Name string
	// Description is a one-line summary for listings.
	Description string
	// Calibrated marks profiles validated against the real machine
	// (only Summit today); the rest are illustrative datasheet models.
	Calibrated bool
	// Build returns the configuration at the given node count.
	Build func(nodes int) Config
}

var profiles []Profile

// RegisterProfile adds a profile to the registry. Duplicate names are a
// programming error and panic at init time.
func RegisterProfile(p Profile) {
	if p.Name == "" || p.Build == nil {
		panic("machine: profile needs a name and a build function")
	}
	for _, q := range profiles {
		if q.Name == p.Name {
			panic(fmt.Sprintf("machine: duplicate profile %q", p.Name))
		}
	}
	profiles = append(profiles, p)
}

// Profiles returns the registered profiles in registration order
// (built-ins first).
func Profiles() []Profile {
	out := make([]Profile, len(profiles))
	copy(out, profiles)
	return out
}

// ProfileByName resolves a profile, with an error naming the known
// profiles on a miss.
func ProfileByName(name string) (Profile, error) {
	for _, p := range profiles {
		if p.Name == name {
			return p, nil
		}
	}
	names := make([]string, len(profiles))
	for i, p := range profiles {
		names[i] = p.Name
	}
	sort.Strings(names)
	return Profile{}, fmt.Errorf("machine: unknown profile %q (have: %s)",
		name, strings.Join(names, ", "))
}

// BuildProfile resolves name and builds its Config at the given node
// count, validating the result.
func BuildProfile(name string, nodes int) (Config, error) {
	p, err := ProfileByName(name)
	if err != nil {
		return Config{}, err
	}
	cfg := p.Build(nodes)
	if err := cfg.Validate(); err != nil {
		return Config{}, fmt.Errorf("machine: profile %q at %d nodes: %w", name, nodes, err)
	}
	return cfg, nil
}

func init() {
	RegisterProfile(Profile{
		Name:        "summit",
		Description: "Summit: 6x V100 per node, dual-rail EDR fat tree (paper-calibrated)",
		Calibrated:  true,
		Build:       Summit,
	})
	RegisterProfile(Profile{
		Name:        "perlmutter",
		Description: "Perlmutter-like: 4x A100 per node, Slingshot-11 (illustrative)",
		Build:       Perlmutter,
	})
	RegisterProfile(Profile{
		Name:        "frontier",
		Description: "Frontier-like: 8x MI250X GCD per node, Slingshot-11 (illustrative)",
		Build:       Frontier,
	})
	// Fabric-backed variants: the same cost models with the detailed
	// contention fabric attached, each registered as its own profile.
	RegisterProfile(Profile{
		Name:        "summit-tapered-2x",
		Description: "Summit with a 2:1 tapered fat tree (3 uplinks/pod; contention study)",
		Build:       taperedFatTree(Summit, 2),
	})
	RegisterProfile(Profile{
		Name:        "summit-tapered-4x",
		Description: "Summit with a 4:1 tapered fat tree (3 uplinks/pod; contention study)",
		Build:       taperedFatTree(Summit, 4),
	})
	RegisterProfile(Profile{
		Name:        "perlmutter-dragonfly",
		Description: "Perlmutter-like on an explicit dragonfly (2:1 global taper, illustrative)",
		Build:       dragonflyVariant(Perlmutter, 2),
	})
	RegisterProfile(Profile{
		Name:        "frontier-dragonfly",
		Description: "Frontier-like on an explicit dragonfly (2:1 global taper, illustrative)",
		Build:       dragonflyVariant(Frontier, 2),
	})
	// Routing/topology-zoo variants: route choice is part of the cost
	// model, so retuning the adaptive policy (candidate count, penalty
	// half-life) is a model change that bumps sim.EngineVersion.
	RegisterProfile(Profile{
		Name:        "perlmutter-dragonfly-adaptive",
		Description: "perlmutter-dragonfly with adaptive (occupancy+penalty) routing",
		Build:       withRouting(dragonflyVariant(Perlmutter, 2), netsim.RoutingAdaptive),
	})
	RegisterProfile(Profile{
		Name:        "frontier-slimfly",
		Description: "Frontier-like on a diameter-2 slim-fly group graph (2:1 taper, illustrative)",
		Build:       topologyVariant(Frontier, netsim.TopoSlimFly, 2, 2),
	})
	RegisterProfile(Profile{
		Name:        "summit-torus",
		Description: "Summit cost model on a 3-D torus of cabinets (dimension-order routes)",
		Build:       topologyVariant(Summit, netsim.TopoTorus, 2, 3),
	})
}

// taperedFatTree wraps a base profile builder with a detailed fat-tree
// fabric tapered by the given ratio (uplink bandwidth derived from the
// pod's aggregate injection bandwidth / taper, over 3 parallel links).
func taperedFatTree(base func(int) Config, taper float64) func(int) Config {
	return func(nodes int) Config {
		cfg := base(nodes)
		cfg.Fabric = &netsim.FabricConfig{Taper: taper, UplinksPerPod: 3}
		return cfg
	}
}

// dragonflyVariant wraps a base profile builder with a dragonfly
// topology and explicit global links tapered by the given ratio, the
// Slingshot-class geometry the base Slingshot cost model approximates
// with hop counts alone.
func dragonflyVariant(base func(int) Config, taper float64) func(int) Config {
	return func(nodes int) Config {
		cfg := base(nodes)
		cfg.Net.Topology = netsim.TopoDragonfly
		cfg.Fabric = &netsim.FabricConfig{Taper: taper, UplinksPerPod: 2}
		return cfg
	}
}

// topologyVariant wraps a base profile builder with an alternative
// switch geometry and a detailed fabric tapered by the given ratio.
func topologyVariant(base func(int) Config, topo string, taper float64, uplinks int) func(int) Config {
	return func(nodes int) Config {
		cfg := base(nodes)
		cfg.Net.Topology = topo
		cfg.Fabric = &netsim.FabricConfig{Taper: taper, UplinksPerPod: uplinks}
		return cfg
	}
}

// withRouting overrides the routing policy of a fabric-backed builder.
func withRouting(build func(int) Config, routing string) func(int) Config {
	return func(nodes int) Config {
		cfg := build(nodes)
		cfg.Fabric.Routing = routing
		return cfg
	}
}

// Perlmutter returns an illustrative Perlmutter-like GPU-node
// configuration: 4 A100s per node, four Slingshot-11 NICs (~100 GB/s
// aggregate injection), NVLink3 peers. Datasheet numbers, not
// paper-calibrated.
func Perlmutter(nodes int) Config {
	return Config{
		Nodes:       nodes,
		GPUsPerNode: 4,
		GPU:         gpu.A100(),
		Net:         netsim.Slingshot(100e9, 75e9),
		HostMemBW:   200e9,
	}
}

// Frontier returns an illustrative Frontier-like configuration: 8
// MI250X GCDs per node (one rank per GCD), four Slingshot-11 NICs,
// Infinity Fabric peers. Datasheet numbers, not paper-calibrated.
func Frontier(nodes int) Config {
	return Config{
		Nodes:       nodes,
		GPUsPerNode: 8,
		GPU:         gpu.MI250X(),
		Net:         netsim.Slingshot(100e9, 50e9),
		HostMemBW:   205e9,
	}
}
