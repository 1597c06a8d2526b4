package netsim

import (
	"fmt"

	"gat/internal/sim"
)

// Routing policy registry names. FabricConfig.Routing selects one;
// empty means RoutingMinimal, which reproduces the pre-Router fabric
// byte-for-byte.
const (
	RoutingMinimal  = "minimal"
	RoutingValiant  = "valiant"
	RoutingAdaptive = "adaptive"
)

// RoutingNames lists the registered routing policies, minimal first.
func RoutingNames() []string {
	return []string{RoutingMinimal, RoutingValiant, RoutingAdaptive}
}

// ValidRouting reports whether name selects a routing policy ("" is
// minimal), with an error naming the known policies otherwise.
func ValidRouting(name string) error {
	switch name {
	case "", RoutingMinimal, RoutingValiant, RoutingAdaptive:
		return nil
	}
	return fmt.Errorf("netsim: unknown routing policy %q (have: %s, %s, %s)",
		name, RoutingMinimal, RoutingValiant, RoutingAdaptive)
}

// PickByHash marks a LinkClaim whose parallel-link choice is deferred
// to the splitmix64 flow hash at reservation time (minimal and Valiant
// routing). Adaptive routing resolves claims to concrete link ids
// before reservation.
const PickByHash = -1

// LinkClaim is one shared fabric link a route occupies: a group's
// egress (up) or ingress (down) link set, and either a pre-resolved
// member (a dense Fabric link id) or PickByHash.
type LinkClaim struct {
	Group int
	Down  bool
	Link  int
}

// Route is one candidate fabric path: its switch hop count — which
// prices the wire latency exactly as Topology.Hops prices minimal
// paths — and the ordered shared-link claims the message occupies
// cut-through, each starting one hop latency after the previous.
type Route struct {
	Hops   int
	Claims []LinkClaim
}

// Router chooses the fabric route of each cross-group message. It is
// consulted at fire time — after the tx NIC reservation, when per-link
// occupancy is current — so adaptive policies react to the congestion
// the message would actually meet. Implementations are owned by one
// Fabric (one engine, one run): they may keep per-run state (seeded
// RNG streams, penalty tables) and reuse scratch buffers, because a
// returned Route is consumed before the next call. Determinism
// contract: route choice may depend only on per-run state and engine
// time, never on wall clock or map order, so sweeps stay byte-identical
// at any -j / -shards.
type Router interface {
	// Name is the policy's registry key.
	Name() string
	// Route returns the path for one src→dst message; src and dst are
	// nodes in different groups.
	Route(src, dst int) Route
}

// routingSeedSalt decouples the routing RNG stream from the jitter
// stream: both derive from the per-run seed, but a Valiant draw must
// not perturb jitter draws (and vice versa).
const routingSeedSalt = 0x9e3779b97f4a7c15

// adaptiveCandidates is the number of non-minimal detours the adaptive
// router considers per message, UGAL-style.
const adaptiveCandidates = 2

// routerDraws reports whether the named policy draws from a seeded
// routing RNG, and so reads the per-run seed (Config.ReadsSeed): it
// must hold for every policy newRouter gives an rng.
func routerDraws(name string) bool {
	return name == RoutingValiant || name == RoutingAdaptive
}

// newRouter instantiates the configured policy for this fabric. The
// seed is the per-run jitter seed (set for every run by the bench
// layer, jittered or not), so routing decisions reproduce run-for-run.
func (f *Fabric) newRouter(name string, seed uint64) Router {
	switch name {
	case "", RoutingMinimal:
		return &minimalRouter{f: f}
	case RoutingValiant:
		return &valiantRouter{f: f, rng: sim.NewRNG(seed ^ routingSeedSalt)}
	case RoutingAdaptive:
		half := 8 * f.n.cfg.LatencyBase
		if half <= 0 {
			half = 8 * sim.Microsecond
		}
		return &adaptiveRouter{
			f:        f,
			rng:      sim.NewRNG(seed ^ routingSeedSalt),
			penalty:  make([]linkPenalty, len(f.links)),
			halfLife: half,
		}
	}
	// machine.Config.Validate reports unknown names as errors first;
	// reaching here means a raw netsim caller skipped validation.
	panic(ValidRouting(name))
}

// appendClaims expands a group-level path (from `from`, through each
// group in path) into per-link claims: every inter-group edge u→v
// occupies u's egress set and v's ingress set, choice deferred to the
// flow hash.
func appendClaims(claims []LinkClaim, from int, path []int) []LinkClaim {
	prev := from
	for _, g := range path {
		claims = append(claims,
			LinkClaim{Group: prev, Down: false, Link: PickByHash},
			LinkClaim{Group: g, Down: true, Link: PickByHash})
		prev = g
	}
	return claims
}

// minimalRouter always takes the topology's shortest path, with the
// parallel-link choice left to the flow hash — exactly the pre-Router
// fabric behavior on every topology.
type minimalRouter struct {
	f      *Fabric
	path   []int
	claims []LinkClaim
}

func (r *minimalRouter) Name() string { return RoutingMinimal }

func (r *minimalRouter) Route(src, dst int) Route {
	topo := r.f.n.topo
	ga, gb := topo.Group(src), topo.Group(dst)
	r.path = topo.groupPath(ga, gb, r.path[:0])
	r.claims = appendClaims(r.claims[:0], ga, r.path)
	return Route{Hops: topo.hopsForEdges(len(r.path)), Claims: r.claims}
}

// valiantRouter implements Valiant load balancing: every cross-group
// message detours through a uniformly random intermediate group drawn
// from the per-run seeded routing RNG, trading path length for
// immunity to adversarial traffic patterns. A draw landing on the
// source or destination group degenerates to the minimal route, as in
// classical VLB. Exactly one draw per message, so the stream — and
// with it every sweep byte — reproduces under any -j / -shards.
type valiantRouter struct {
	f      *Fabric
	rng    *sim.RNG
	path   []int
	claims []LinkClaim
}

func (r *valiantRouter) Name() string { return RoutingValiant }

func (r *valiantRouter) Route(src, dst int) Route {
	topo := r.f.n.topo
	ga, gb := topo.Group(src), topo.Group(dst)
	via := r.rng.Intn(r.f.groups)
	r.path = r.path[:0]
	mid := ga
	if via != ga && via != gb {
		r.path = topo.groupPath(ga, via, r.path)
		mid = via
	}
	r.path = topo.groupPath(mid, gb, r.path)
	r.claims = appendClaims(r.claims[:0], ga, r.path)
	return Route{Hops: topo.hopsForEdges(len(r.path)), Claims: r.claims}
}

// linkPenalty is one link's congestion memory: val is the accumulated
// backlog last observed at engine time at, halved for every elapsed
// halfLife when read (lazy decay, integer shifts — exactly
// reproducible on every platform).
type linkPenalty struct {
	val sim.Time
	at  sim.Time
}

// adaptiveRouter is progressive-adaptive (UGAL-style) routing built on
// the feedback-chooser idiom of SNIPPETS snippet 2's IpChooser: each
// message scores the minimal route against adaptiveCandidates Valiant
// detours, where a route's cost is the summed backlog of its claimed
// links (how far in the future each frees up) plus a decaying penalty
// that remembers recently congested links, and non-minimal routes pay
// their extra hops at wire cost — so an idle fabric always routes
// minimally. Parallel-link claims resolve to the cheapest member with
// a deterministic (occupancy, linkID) tie-break: link sets are scanned
// in ascending id order and only a strictly cheaper link displaces the
// incumbent, so equal-cost choices are stable at any -j / -shards.
type adaptiveRouter struct {
	f        *Fabric
	rng      *sim.RNG
	penalty  []linkPenalty
	halfLife sim.Time
	path     []int
	claims   []LinkClaim // candidate scratch
	best     []LinkClaim // winning candidate's claims
}

func (r *adaptiveRouter) Name() string { return RoutingAdaptive }

// decayed returns link id's penalty at engine time now.
func (r *adaptiveRouter) decayed(id int, now sim.Time) sim.Time {
	p := r.penalty[id]
	if p.val == 0 {
		return 0
	}
	steps := (now - p.at) / r.halfLife
	if steps >= 63 {
		return 0
	}
	return p.val >> uint(steps)
}

// cost prices one link: its current backlog plus its decayed penalty.
func (r *adaptiveRouter) cost(id int, now sim.Time) sim.Time {
	b := r.f.links[id].FreeAt() - now
	if b < 0 {
		b = 0
	}
	return b + r.decayed(id, now)
}

// scoreAndResolve resolves every claim to the cheapest link of its set
// (ascending-id scan, strictly-cheaper displacement: the (occupancy,
// linkID) tie-break) and returns the route's summed link cost.
func (r *adaptiveRouter) scoreAndResolve(claims []LinkClaim, now sim.Time) sim.Time {
	var total sim.Time
	for i := range claims {
		set := r.f.linkSet(claims[i].Group, claims[i].Down)
		best := set[0]
		bestCost := r.cost(best, now)
		for _, id := range set[1:] {
			if c := r.cost(id, now); c < bestCost {
				best, bestCost = id, c
			}
		}
		claims[i].Link = best
		total += bestCost
	}
	return total
}

func (r *adaptiveRouter) Route(src, dst int) Route {
	f := r.f
	topo := f.n.topo
	now := f.n.eng.Now()
	hopCost := f.n.cfg.LatencyPerHop
	ga, gb := topo.Group(src), topo.Group(dst)

	// Candidate 0: the minimal route.
	r.path = topo.groupPath(ga, gb, r.path[:0])
	r.best = appendClaims(r.best[:0], ga, r.path)
	minHops := topo.hopsForEdges(len(r.path))
	bestHops := minHops
	bestScore := r.scoreAndResolve(r.best, now)

	// Non-minimal candidates: Valiant detours, their extra hops priced
	// at wire cost. Always exactly adaptiveCandidates RNG draws per
	// message, degenerate draws included, to keep the stream aligned.
	for k := 0; k < adaptiveCandidates; k++ {
		via := r.rng.Intn(f.groups)
		if via == ga || via == gb {
			continue
		}
		r.path = topo.groupPath(ga, via, r.path[:0])
		r.path = topo.groupPath(via, gb, r.path)
		r.claims = appendClaims(r.claims[:0], ga, r.path)
		hops := topo.hopsForEdges(len(r.path))
		score := r.scoreAndResolve(r.claims, now) +
			sim.Time(hops-minHops)*hopCost
		if score < bestScore {
			r.best, r.claims = r.claims, r.best
			bestScore, bestHops = score, hops
		}
	}

	// Feedback: links chosen while backlogged accumulate penalty, so
	// later messages spread away from a congested path even after its
	// queue drains — the decaying blacklist of the IpChooser idiom.
	for i := range r.best {
		id := r.best[i].Link
		if b := f.links[id].FreeAt() - now; b > 0 {
			r.penalty[id] = linkPenalty{val: r.decayed(id, now) + b, at: now}
		}
	}
	return Route{Hops: bestHops, Claims: r.best}
}
