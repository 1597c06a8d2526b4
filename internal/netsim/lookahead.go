package netsim

import "gat/internal/sim"

// This file is the lookahead seam of the conservative PDES layer
// (internal/pdes): static queries over the cost model and topology that
// need no instantiated Network — an exascale-scale LP partition derives
// its window bound from the configuration alone, without building one
// NIC pipe per node.

// PathLatency returns the deterministic (jitter-free) one-way wire
// latency between nodes a and b under the α–β model: the intra-node
// path at 0 hops, LatencyBase + (hops-1)·LatencyPerHop otherwise.
// Network.Latency computes the same value (plus the jitter draw when
// enabled) for instantiated networks.
func PathLatency(cfg Config, topo Topology, a, b int) sim.Time {
	h := topo.Hops(a, b)
	if h == 0 {
		return cfg.IntraNodeLatency
	}
	return cfg.LatencyBase + sim.Time(h-1)*cfg.LatencyPerHop
}

// CrossGroupLatency returns the smallest one-way wire latency between
// two nodes in different switch groups: LatencyBase +
// (CrossGroupHops−1)·LatencyPerHop. For a partition that keeps whole
// groups on each shard it is the conservative lookahead bound: no
// cross-shard interaction can take effect sooner than this after it is
// sent. CrossGroupHops is by contract the geometry's *minimum*
// cross-group hop distance (the fat tree and dragonfly price every
// cross-group pair at it; the torus and slim fly only their adjacent
// groups), so no cross-group pair is closer.
//
// The bound also holds under every routing policy, not just minimal:
// a Router may lengthen a route (Valiant detours, adaptive escapes)
// but never shorten it below the topology's minimal path, because
// non-minimal group paths traverse at least as many inter-group edges
// and hopsForEdges is strictly increasing — so the shortest *possible*
// route, which this function prices, stays the conservative floor.
// TestRoutingNeverUndercutsLookahead pins the invariant for every
// topology × routing pair; internal/pdes's serial-vs-sharded
// byte-equality depends on it.
func CrossGroupLatency(cfg Config, topo Topology) sim.Time {
	return cfg.LatencyBase + sim.Time(topo.CrossGroupHops()-1)*cfg.LatencyPerHop
}
