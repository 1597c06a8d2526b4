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

// MinCrossLatency returns the smallest one-way wire latency between any
// two of the nodes that a partition places on different shards — the
// conservative lookahead bound: no cross-shard interaction can take
// effect sooner than this after it is sent. It returns 0 when no pair
// of nodes crosses shards (a single shard, or fewer nodes than shards'
// worth of groups), which callers must treat as "no lookahead window"
// rather than a zero-width one.
//
// The scan is O(nodes): every geometry prices same-group pairs alike,
// and CrossGroupHops is by contract the geometry's *minimum*
// cross-group hop distance (the fat tree and dragonfly price every
// cross-group pair at it; the torus and slim fly only their adjacent
// groups), so the minimum is decided by whether the partition splits a
// group, not by which pair it splits.
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
func MinCrossLatency(cfg Config, topo Topology, nodes int, shardOf func(node int) int) sim.Time {
	if nodes < 2 || shardOf == nil {
		return 0
	}
	multi := false
	splitA, splitB := -1, -1
	// Groups are dense in node order, so the last node's group bounds
	// them. groupNode holds each group's first node plus one (0: none
	// seen yet) and groupShard that node's shard.
	nGroups := topo.Group(nodes-1) + 1
	groupNode := make([]int, nGroups)
	groupShard := make([]int, nGroups)
	first := shardOf(0)
	for n := 0; n < nodes; n++ {
		s := shardOf(n)
		if s != first {
			multi = true
		}
		g := topo.Group(n)
		if groupNode[g] == 0 {
			groupNode[g], groupShard[g] = n+1, s
		} else if groupShard[g] != s && splitA < 0 {
			splitA, splitB = groupNode[g]-1, n
		}
	}
	if !multi {
		return 0
	}
	if splitA >= 0 {
		// A group is split across shards: the in-group (or worse, the
		// intra-node) path is the binding latency.
		return PathLatency(cfg, topo, splitA, splitB)
	}
	// Group-aligned partition: every cross-shard pair is cross-group,
	// and no such pair is closer than the adjacent-group distance.
	h := topo.CrossGroupHops()
	return cfg.LatencyBase + sim.Time(h-1)*cfg.LatencyPerHop
}

// MinCrossLatency is the instantiated-network form of the package-level
// query, over this network's cost model, topology and node count.
func (n *Network) MinCrossLatency(shardOf func(node int) int) sim.Time {
	return MinCrossLatency(n.cfg, n.topo, len(n.nics), shardOf)
}
