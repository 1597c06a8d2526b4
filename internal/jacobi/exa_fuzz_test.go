package jacobi

import (
	"encoding/binary"
	"testing"

	"gat/internal/machine"
	"gat/internal/netsim"
	"gat/internal/sim"
)

// exaRefNeighbor and exaRefNode are one node's static LP state as the
// per-node reference computes it: the node's own Block, its face
// neighbors in face order, and the halo cost of each.
type exaRefNeighbor struct {
	face  int
	lp    int32
	bytes int64
	delay sim.Time
}

type exaRefNode struct {
	boundaryT, interiorT sim.Time
	neighbors            []exaRefNeighbor
}

// exaReference builds every node's static state from its own Block,
// one node at a time: the setup loop RunExa ran before the static data
// moved to per-shape tables. newExaModel must reproduce it exactly.
func exaReference(cfg machine.Config, topo netsim.Topology, d Decomp) []exaRefNode {
	aggBW := cfg.GPU.MemBandwidth * float64(cfg.GPUsPerNode)
	launch := cfg.GPU.KernelLaunchHost
	nodes := make([]exaRefNode, d.Count())
	for n := range nodes {
		b := d.BlockFlat(n)
		s := &nodes[n]
		interior := b.InteriorVolume()
		boundary := b.Volume() - interior
		s.boundaryT = launch +
			sim.DurationOf(boundary*UpdateBytesPerCell+b.TotalFaceCells()*PackBytesPerCell, aggBW)
		s.interiorT = launch + sim.DurationOf(interior*UpdateBytesPerCell, aggBW)
		for face := 0; face < NumFaces; face++ {
			idx, ok := b.neighbor(face)
			if !ok {
				continue
			}
			peer := d.Flatten(idx)
			bytes := b.FaceBytes(face)
			delay := netsim.PathLatency(cfg.Net, topo, n, peer) +
				cfg.Net.NICOverhead + sim.DurationOf(bytes, cfg.Net.InjectionBW)
			s.neighbors = append(s.neighbors, exaRefNeighbor{face: face, lp: int32(peer), bytes: bytes, delay: delay})
		}
	}
	return nodes
}

// checkExaSetup builds the LP model of cfg's machine on the global grid
// with the shape builder, starts every node, and fails unless every
// node gets the compute times, the (peer, delay) link on each face, the
// halo bytes and the neighbor count the per-node reference gives it. A
// link's peer is derived as sendHalos derives it: the node's id plus
// the stride of the face.
func checkExaSetup(t *testing.T, cfg machine.Config, global [3]int) {
	t.Helper()
	topo, err := netsim.TopologyByName(cfg.Net.Topology, cfg.Net.EffectivePodSize(), cfg.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDecomp(global, cfg.Nodes)
	x := newExaModel(cfg, topo, d, 2, 1, true)
	ref := exaReference(cfg, topo, d)
	if len(x.nodes) != len(ref) {
		t.Fatalf("%v on %d nodes: %d node records, want %d", global, cfg.Nodes, len(x.nodes), len(ref))
	}
	for n, want := range ref {
		s := *x.start(n)
		sh := x.shapes[s.shape]
		if sh.boundaryT != want.boundaryT || sh.interiorT != want.interiorT {
			t.Fatalf("%v on %d nodes, node %d: boundary/interior %d/%d ns, want %d/%d ns",
				global, cfg.Nodes, n, sh.boundaryT, sh.interiorT, want.boundaryT, want.interiorT)
		}
		var faces []int
		for face := range x.step {
			if sh.faces&(1<<face) != 0 {
				faces = append(faces, face)
			} else if s.links[face] != 0 {
				t.Fatalf("%v on %d nodes, node %d: a %d ns link on face %d, which has no neighbor",
					global, cfg.Nodes, n, s.links[face], face)
			}
		}
		if int(sh.degree) != len(want.neighbors) || len(faces) != len(want.neighbors) {
			t.Fatalf("%v on %d nodes, node %d: degree %d, faces %v, want %d neighbors",
				global, cfg.Nodes, n, sh.degree, faces, len(want.neighbors))
		}
		var bytes int64
		for i, nb := range want.neighbors {
			face := faces[i]
			delay := s.links[face]
			if peer := n + x.step[face]; face != nb.face || peer != int(nb.lp) || sim.Time(delay) != nb.delay {
				t.Fatalf("%v on %d nodes, node %d, link %d: face %d to %d in %d ns, want face %d to %d in %d ns",
					global, cfg.Nodes, n, i, face, peer, delay, nb.face, nb.lp, nb.delay)
			}
			bytes += nb.bytes
		}
		if sh.haloBytes != bytes {
			t.Fatalf("%v on %d nodes, node %d: %d halo bytes, want %d", global, cfg.Nodes, n, sh.haloBytes, bytes)
		}
	}
}

// exaSetupProfiles are the machines FuzzExaSetup draws from, one per
// topology.
var exaSetupProfiles = []string{"perlmutter-dragonfly", "summit-tapered-2x", "summit-torus", "frontier-slimfly"}

// decodeExaSetup reads in as three little-endian uint16 global dims
// (each mod 512, plus 1), a uint16 node count (mod 1,024, plus 1) and a
// profile byte. It reports false when in is too short.
func decodeExaSetup(in []byte) (global [3]int, nodes int, profile string, ok bool) {
	if len(in) < 9 {
		return global, 0, "", false
	}
	for ax := range global {
		global[ax] = 1 + int(binary.LittleEndian.Uint16(in[2*ax:]))%512
	}
	nodes = 1 + int(binary.LittleEndian.Uint16(in[6:]))%1024
	profile = exaSetupProfiles[int(in[8])%len(exaSetupProfiles)]
	return global, nodes, profile, true
}

// encodeExaSetup is decodeExaSetup's inverse, for the seed corpus.
func encodeExaSetup(global [3]int, nodes, profile int) []byte {
	in := make([]byte, 9)
	for ax, g := range global {
		binary.LittleEndian.PutUint16(in[2*ax:], uint16(g-1))
	}
	binary.LittleEndian.PutUint16(in[6:], uint16(nodes-1))
	in[8] = byte(profile)
	return in
}

// FuzzExaSetup is a differential target for RunExa's setup: on random
// global grids, node counts and machines, the per-shape builder must
// give every node the static state the per-node Block loop gives it.
func FuzzExaSetup(f *testing.F) {
	for _, c := range []struct {
		global         [3]int
		nodes, profile int
	}{
		{[3]int{100, 70, 33}, 24, 0},     // uneven splits: 4x3x2 blocks
		{[3]int{511, 509, 257}, 1000, 1}, // uneven splits: 10x10x10 blocks
		{[3]int{1, 64, 64}, 16, 2},       // a 1-cell axis
		{[3]int{7, 300, 300}, 960, 3},    // 32 blocks of 10 cells on z, the last two empty
		{[3]int{3, 2, 1}, 1024, 0},       // more blocks than cells on x and z
		{[3]int{64, 64, 64}, 1, 1},       // one node
		{[3]int{512, 512, 512}, 1024, 2}, // the largest input
	} {
		f.Add(encodeExaSetup(c.global, c.nodes, c.profile))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		global, nodes, profile, ok := decodeExaSetup(in)
		if !ok {
			return
		}
		cfg, err := machine.BuildProfile(profile, nodes)
		if err != nil {
			t.Fatal(err)
		}
		checkExaSetup(t, cfg, global)
	})
}

// TestExaSetupMatchesReference runs FuzzExaSetup's check on the five
// exascale-lp sizes, whose grids and node counts lie beyond the fuzz
// input's range.
func TestExaSetupMatchesReference(t *testing.T) {
	for _, nodes := range []int{1024, 2048, 4096, 8192, 16384} {
		checkExaSetup(t, exaCfg(t, "perlmutter-dragonfly", nodes), WeakGlobal([3]int{192, 192, 192}, nodes))
	}
}
