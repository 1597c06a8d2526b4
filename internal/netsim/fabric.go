package netsim

import (
	"fmt"

	"gat/internal/sim"
)

// Detailed fabric model: optional explicit group-egress and
// group-ingress pipes — leaf uplinks and spine downlinks on a fat
// tree, global out/in links on a dragonfly, inter-cabinet links on a
// torus — so traffic between switch groups contends on shared links
// instead of only on endpoint NICs. The default NIC-only model is a
// good approximation of Summit's non-blocking fat tree; the detailed
// model exists to study what the paper's results look like on a
// *tapered* fabric, where link contention grows with scale, and under
// non-minimal routing (FabricConfig.Routing), where route choice
// itself responds to that contention.

// FabricConfig parameterizes the detailed fabric.
type FabricConfig struct {
	// UplinkBW is the bandwidth of one group egress/ingress link in
	// bytes/s. With UplinkBW < PodSize*InjectionBW/UplinksPerPod the
	// fabric is tapered. Zero derives it from Taper.
	UplinkBW float64
	// Taper, when UplinkBW is zero, derives the link bandwidth from the
	// taper ratio: the group's aggregate uplink bandwidth is
	// PodSize*InjectionBW/Taper, split over UplinksPerPod links. Taper 1
	// is a non-blocking (fully provisioned) fabric; Taper 2 a 2:1 taper.
	Taper float64
	// UplinksPerPod is the number of parallel egress (and ingress) links
	// per switch group; flows hash over them by (src, dst) unless
	// adaptive routing resolves the choice by occupancy.
	UplinksPerPod int
	// LinkOverhead is the per-message occupancy overhead of each link.
	LinkOverhead sim.Time
	// Routing selects the route-choice policy for cross-group messages:
	// "" or "minimal" (the topology's shortest path, flow-hashed link
	// choice — the pre-Router behavior, byte-identical), "valiant"
	// (random intermediate group per message), or "adaptive"
	// (occupancy- and penalty-driven choice between the minimal route
	// and Valiant detours). See Router.
	Routing string
}

// Fabric is the instantiated link set plus the routing policy.
type Fabric struct {
	cfg    FabricConfig
	n      *Network
	groups int
	// links holds every fabric pipe; a link's dense id is its index —
	// the integer key the adaptive router's penalty table is indexed by.
	links []*sim.Pipe
	// up[g] / down[g] are the ids of group g's parallel egress/ingress
	// links, ascending.
	up, down [][]int
	router   Router
}

// EnableFabric attaches a detailed fabric to the network. Transfers
// between different switch groups (Topology.Group) then reserve the
// shared links along their route — chosen by the configured Router —
// in addition to the endpoint NICs.
//
// It must be called before any traffic is offered (before the first
// Transfer): links attached mid-run would have missed earlier
// contention and report utilization against the wrong elapsed time, so
// a late call panics. Machine-layer configurations attach the fabric
// at machine.New time via Config.Fabric, which always satisfies this.
func (n *Network) EnableFabric(cfg FabricConfig) *Fabric {
	if n.offered {
		panic("netsim: EnableFabric called after traffic was offered; attach the fabric before any Transfer")
	}
	if cfg.UplinksPerPod <= 0 {
		cfg.UplinksPerPod = 1
	}
	cfg.UplinkBW = cfg.LinkBW(n.cfg)
	if !(cfg.UplinkBW > 0) {
		panic("netsim: fabric needs a positive uplink bandwidth or taper ratio")
	}
	groups := n.topo.Group(len(n.nics)-1) + 1
	label := n.topo.groupLabel()
	f := &Fabric{cfg: cfg, n: n, groups: groups}
	for g := 0; g < groups; g++ {
		var ups, downs []int
		for i := 0; i < cfg.UplinksPerPod; i++ {
			ups = append(ups, f.newLink(fmt.Sprintf("%s%d/up%d", label, g, i)))
			downs = append(downs, f.newLink(fmt.Sprintf("%s%d/down%d", label, g, i)))
		}
		f.up = append(f.up, ups)
		f.down = append(f.down, downs)
	}
	f.router = f.newRouter(cfg.Routing, n.cfg.JitterSeed)
	n.fabric = f
	return f
}

// LinkBW returns the bandwidth of one group link on a network
// configured by net: UplinkBW, or when that is not positive and Taper
// is, the group's aggregate injection bandwidth over Taper, split over
// UplinksPerPod links (at least one).
func (c FabricConfig) LinkBW(net Config) float64 {
	if c.UplinkBW <= 0 && c.Taper > 0 {
		links := c.UplinksPerPod
		if links <= 0 {
			links = 1
		}
		return float64(net.EffectivePodSize()) * net.InjectionBW / (c.Taper * float64(links))
	}
	return c.UplinkBW
}

// newLink creates one fabric pipe and returns its dense id.
func (f *Fabric) newLink(name string) int {
	f.links = append(f.links, sim.NewPipe(f.n.eng, name, f.cfg.UplinkBW, f.cfg.LinkOverhead))
	return len(f.links) - 1
}

// Config returns the fabric parameters, with derived fields (an
// UplinkBW computed from Taper) resolved.
func (f *Fabric) Config() FabricConfig { return f.cfg }

// Router returns the active routing policy.
func (f *Fabric) Router() Router { return f.router }

// linkSet returns a group's egress or ingress link ids, ascending.
func (f *Fabric) linkSet(group int, down bool) []int {
	if down {
		return f.down[group]
	}
	return f.up[group]
}

// pick hashes a flow onto one of a set of parallel links. The
// (src, dst) pair is run through a full 64-bit finalizer (splitmix64)
// rather than a multiply-add: halo traffic is stride-aligned (partner
// = rank + k), and a linear hash mod a power-of-two link count maps
// every such flow onto one link, defeating the parallel uplinks.
func (f *Fabric) pick(ids []int, src, dst int) int {
	h := uint64(src)<<32 | uint64(uint32(dst))
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return ids[h%uint64(len(ids))]
}

// reserve books every link claim of a route for a cross-group message,
// cut-through after the tx NIC: each claim starts one hop latency
// after the previous stage's start. Claims left at PickByHash resolve
// through the flow hash; adaptive routing pre-resolves them. It
// returns the final (ingress) link's occupancy window, which gates the
// receive side.
func (f *Fabric) reserve(route Route, src, dst int, bytes int64, txStart sim.Time) (lastStart, lastEnd sim.Time) {
	hop := f.n.cfg.LatencyPerHop
	prev := txStart
	for i := range route.Claims {
		c := &route.Claims[i]
		id := c.Link
		if id == PickByHash {
			id = f.pick(f.linkSet(c.Group, c.Down), src, dst)
		}
		lastStart, lastEnd = f.links[id].Reserve(prev+hop, bytes)
		prev = lastStart
	}
	return lastStart, lastEnd
}

// Utilizations returns the utilization of every fabric link, keyed by
// link name (for taper and routing studies).
func (f *Fabric) Utilizations() map[string]float64 {
	out := make(map[string]float64, len(f.links))
	for _, l := range f.links {
		out[l.Name()] = l.Utilization()
	}
	return out
}

// UtilizationSummary reduces Utilizations to the max and mean link
// utilization — the per-run congestion summary experiments report.
func (f *Fabric) UtilizationSummary() (max, mean float64) {
	var sum float64
	for _, l := range f.links {
		u := l.Utilization()
		if u > max {
			max = u
		}
		sum += u
	}
	if len(f.links) > 0 {
		mean = sum / float64(len(f.links))
	}
	return max, mean
}
