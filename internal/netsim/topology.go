package netsim

import "fmt"

// Topology models the interconnect's switch geometry: how many switch
// hops separate two nodes, which nodes share a switch group — the
// granularity at which the detailed fabric (EnableFabric) attaches its
// shared links — and the group-level paths routes traverse. Transfers
// within one group ride only the endpoint NICs; transfers between
// groups additionally claim shared group egress/ingress links along
// their route (see Route), which is where taper-induced contention
// appears.
//
// Four geometries are built in: the two-level fat tree the paper's
// Summit model always used, a dragonfly (group-local vs. global links)
// for the Slingshot-class machines, a 3-D torus of switch groups with
// dimension-order minimal routing, and a diameter-2 slim-fly-style
// group graph. All group nodes in blocks of Config.PodSize.
type Topology interface {
	// Name is the registry key ("fattree", "dragonfly", "torus",
	// "slimfly").
	Name() string
	// Hops returns the switch hop count of the minimal route between
	// two nodes (0 within a node).
	Hops(a, b int) int
	// Group returns the switch group of a node: the leaf pod of a fat
	// tree, the router group of a dragonfly, the grid cell of a torus.
	// Groups are numbered densely in node order (node / group size),
	// so Group(nodes-1)+1 is the group count.
	Group(node int) int
	// CrossGroupHops returns the switch hop count of the minimal route
	// between nodes in *adjacent* groups — the geometry's smallest
	// cross-group distance. For the fat tree and dragonfly every
	// cross-group pair prices alike; the torus and slim fly have longer
	// pairs too, so this is a lower bound, which is exactly what the
	// conservative-PDES lookahead derivation needs (CrossGroupLatency).
	CrossGroupHops() int

	// groupLabel prefixes fabric link names ("pod" / "grp" / ...).
	groupLabel() string
	// groupPath appends the minimal group-level route from group ga to
	// group gb to buf — exclusive of ga, inclusive of gb, empty when
	// equal — where each consecutive pair is one inter-group link
	// traversal. Routers compose these paths (e.g. through a Valiant
	// intermediate) and expand them into link claims.
	groupPath(ga, gb int, buf []int) []int
	// hopsForEdges prices a route that traverses k inter-group edges
	// (k >= 1) in switch hops. It is strictly increasing in k, so a
	// longer group path is never cheaper than the minimal one — the
	// PDES lookahead's shortest-route bound relies on this (see
	// CrossGroupLatency and TestRoutingNeverUndercutsLookahead).
	hopsForEdges(k int) int
}

// Topology registry names. Config.Topology selects one; empty means
// TopoFatTree, which reproduces the pre-topology hop model exactly.
const (
	TopoFatTree   = "fattree"
	TopoDragonfly = "dragonfly"
	TopoTorus     = "torus"
	TopoSlimFly   = "slimfly"
)

// TopologyByName resolves a topology name with the given group size
// (nodes per leaf pod / router group) and cluster node count. Empty
// selects the fat tree. The node count shapes the geometries whose
// group graph depends on scale (the torus grid, the slim-fly array);
// the fat tree and dragonfly ignore it.
func TopologyByName(name string, groupSize, nodes int) (Topology, error) {
	if groupSize <= 0 {
		return nil, fmt.Errorf("netsim: topology needs a positive group size, got %d", groupSize)
	}
	if nodes <= 0 {
		nodes = 1
	}
	groups := (nodes + groupSize - 1) / groupSize
	switch name {
	case "", TopoFatTree:
		return fatTree{groupSize: groupSize}, nil
	case TopoDragonfly:
		return dragonfly{groupSize: groupSize}, nil
	case TopoTorus:
		return newTorus(groupSize, groups), nil
	case TopoSlimFly:
		return newSlimFly(groupSize, groups), nil
	default:
		return nil, fmt.Errorf("netsim: unknown topology %q (have: %s, %s, %s, %s)",
			name, TopoFatTree, TopoDragonfly, TopoTorus, TopoSlimFly)
	}
}

// fatTree is the two-level fat tree: nodes under a leaf switch (pod),
// leaves under a spine layer. 2 hops within a pod (node-leaf-node),
// 4 across pods (node-leaf-spine-leaf-node). Every pod pair is one
// spine traversal apart, so group paths are single-edge and each edge
// costs two switch-to-switch hops (leaf-spine-leaf).
type fatTree struct{ groupSize int }

func (t fatTree) Name() string        { return TopoFatTree }
func (t fatTree) groupLabel() string  { return "pod" }
func (t fatTree) Group(node int) int  { return node / t.groupSize }
func (t fatTree) CrossGroupHops() int { return 4 }

func (t fatTree) groupPath(ga, gb int, buf []int) []int {
	if ga == gb {
		return buf
	}
	return append(buf, gb)
}

func (t fatTree) hopsForEdges(k int) int { return 2 + 2*k }

func (t fatTree) Hops(a, b int) int {
	switch {
	case a == b:
		return 0
	case t.Group(a) == t.Group(b):
		return 2
	default:
		return 4
	}
}

// dragonfly is a dragonfly: all-to-all router links within a group,
// one global-link hop between any two groups. 2 hops within a group
// (node-router-node), 3 on the minimal cross-group route
// (node-router-global-router-node adds one switch traversal over the
// in-group path). Non-minimal (Valiant) routes chain two global hops
// through an intermediate group.
type dragonfly struct{ groupSize int }

func (t dragonfly) Name() string        { return TopoDragonfly }
func (t dragonfly) groupLabel() string  { return "grp" }
func (t dragonfly) Group(node int) int  { return node / t.groupSize }
func (t dragonfly) CrossGroupHops() int { return 3 }

func (t dragonfly) groupPath(ga, gb int, buf []int) []int {
	if ga == gb {
		return buf
	}
	return append(buf, gb)
}

func (t dragonfly) hopsForEdges(k int) int { return 2 + k }

func (t dragonfly) Hops(a, b int) int {
	switch {
	case a == b:
		return 0
	case t.Group(a) == t.Group(b):
		return 2
	default:
		return 3
	}
}

// torus is a 3-D torus of switch groups: the groups (cabinets) sit on
// a dx×dy×dz grid with wraparound links in each dimension, factored
// from the group count as near-cubically as its divisors allow.
// Minimal routing is dimension-order — X, then Y, then Z, each along
// the shorter way around the ring (ties go the increasing direction) —
// so cross-group routes traverse intermediate cabinets and claim their
// links: pass-through contention the single-global-hop geometries
// cannot express. 2 hops within a cabinet, 2 + ring distance across.
type torus struct {
	groupSize  int
	dx, dy, dz int
}

func newTorus(groupSize, groups int) torus {
	dx, dy, dz := torusDims(groups)
	return torus{groupSize: groupSize, dx: dx, dy: dy, dz: dz}
}

// torusDims factors the group count into dx <= dy <= dz, each the
// largest divisor not exceeding the cube (then square) root — a
// deterministic near-cubic grid. Prime counts degrade to a 1×1×G ring.
func torusDims(groups int) (dx, dy, dz int) {
	if groups < 1 {
		groups = 1
	}
	dx = 1
	for d := 1; d*d*d <= groups; d++ {
		if groups%d == 0 {
			dx = d
		}
	}
	rest := groups / dx
	dy = 1
	for d := 1; d*d <= rest; d++ {
		if rest%d == 0 {
			dy = d
		}
	}
	return dx, dy, rest / dy
}

func (t torus) Name() string        { return TopoTorus }
func (t torus) groupLabel() string  { return "cab" }
func (t torus) Group(node int) int  { return node / t.groupSize }
func (t torus) CrossGroupHops() int { return 3 } // adjacent cabinets: the minimum cross-group distance

func (t torus) hopsForEdges(k int) int { return 2 + k }

func (t torus) coords(g int) (x, y, z int) {
	return g % t.dx, (g / t.dx) % t.dy, g / (t.dx * t.dy)
}

func (t torus) index(x, y, z int) int { return (z*t.dy+y)*t.dx + x }

// ringDist is the shorter way around a ring of size n.
func ringDist(a, b, n int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if d > n-d {
		d = n - d
	}
	return d
}

// ringStep moves coordinate c one step toward target along a ring of
// size n, the shorter way around (ties go the increasing direction).
func ringStep(c, target, n int) int {
	fwd := (target - c + n) % n
	if fwd <= n-fwd {
		return (c + 1) % n
	}
	return (c - 1 + n) % n
}

func (t torus) groupDist(ga, gb int) int {
	ax, ay, az := t.coords(ga)
	bx, by, bz := t.coords(gb)
	return ringDist(ax, bx, t.dx) + ringDist(ay, by, t.dy) + ringDist(az, bz, t.dz)
}

func (t torus) groupPath(ga, gb int, buf []int) []int {
	x, y, z := t.coords(ga)
	bx, by, bz := t.coords(gb)
	for x != bx {
		x = ringStep(x, bx, t.dx)
		buf = append(buf, t.index(x, y, z))
	}
	for y != by {
		y = ringStep(y, by, t.dy)
		buf = append(buf, t.index(x, y, z))
	}
	for z != bz {
		z = ringStep(z, bz, t.dz)
		buf = append(buf, t.index(x, y, z))
	}
	return buf
}

func (t torus) Hops(a, b int) int {
	switch ga, gb := t.Group(a), t.Group(b); {
	case a == b:
		return 0
	case ga == gb:
		return 2
	default:
		return 2 + t.groupDist(ga, gb)
	}
}

// slimFly approximates a slim-fly / flattened-butterfly diameter-2
// group graph: groups occupy a q×q grid (q = ceil(sqrt(groups)),
// row-major, the last row possibly ragged) and are adjacent iff they
// share a row or a column — O(sqrt(groups)) global links per group and
// at most two inter-group traversals between any pair. Minimal routing
// is the direct link when adjacent, else via the lower-index corner
// group completing the row/column rectangle (at least one corner
// always exists, even on a ragged grid). 2 hops within a group, 3 to
// an adjacent group, 4 otherwise.
type slimFly struct {
	groupSize int
	groups    int
	q         int
}

func newSlimFly(groupSize, groups int) slimFly {
	q := 1
	for q*q < groups {
		q++
	}
	return slimFly{groupSize: groupSize, groups: groups, q: q}
}

func (t slimFly) Name() string        { return TopoSlimFly }
func (t slimFly) groupLabel() string  { return "sf" }
func (t slimFly) Group(node int) int  { return node / t.groupSize }
func (t slimFly) CrossGroupHops() int { return 3 }

func (t slimFly) hopsForEdges(k int) int { return 2 + k }

func (t slimFly) adjacent(ga, gb int) bool {
	return ga/t.q == gb/t.q || ga%t.q == gb%t.q
}

// via returns the intermediate group of a non-adjacent pair: the
// lower-index valid corner of their row/column rectangle.
func (t slimFly) via(ga, gb int) int {
	c1 := (ga/t.q)*t.q + gb%t.q
	c2 := (gb/t.q)*t.q + ga%t.q
	if c2 < c1 {
		c1, c2 = c2, c1
	}
	if c1 < t.groups {
		return c1
	}
	return c2
}

func (t slimFly) groupPath(ga, gb int, buf []int) []int {
	if ga == gb {
		return buf
	}
	if !t.adjacent(ga, gb) {
		buf = append(buf, t.via(ga, gb))
	}
	return append(buf, gb)
}

func (t slimFly) Hops(a, b int) int {
	switch ga, gb := t.Group(a), t.Group(b); {
	case a == b:
		return 0
	case ga == gb:
		return 2
	case t.adjacent(ga, gb):
		return 3
	default:
		return 4
	}
}
