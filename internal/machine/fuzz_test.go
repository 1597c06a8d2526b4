package machine

import (
	"encoding/binary"
	"math"
	"testing"

	"gat/internal/gpu"
	"gat/internal/netsim"
	"gat/internal/sim"
)

// fuzzFloats are the float fields FuzzConfigValidate overwrites, by
// index. The fabric fields give a profile without a fabric an empty
// one first.
var fuzzFloats = []func(*Config) *float64{
	func(c *Config) *float64 { return &c.GPU.MemBandwidth },
	func(c *Config) *float64 { return &c.GPU.CopyBandwidth },
	func(c *Config) *float64 { return &c.Net.InjectionBW },
	func(c *Config) *float64 { return &c.Net.IntraNodeBW },
	func(c *Config) *float64 { return &c.HostMemBW },
	func(c *Config) *float64 { return &c.Net.JitterFrac },
	func(c *Config) *float64 { return &fabricOf(c).Taper },
	func(c *Config) *float64 { return &fabricOf(c).UplinkBW },
}

// Indexes into fuzzFloats for the seeds.
const (
	fzInjectionBW = 2
	fzJitterFrac  = 5
	fzTaper       = 6
	fzUplinkBW    = 7
)

// fabricOf gives c a private copy of its fabric, or an empty one, and
// returns it for editing.
func fabricOf(c *Config) *netsim.FabricConfig {
	var f netsim.FabricConfig
	if c.Fabric != nil {
		f = *c.Fabric
	}
	c.Fabric = &f
	return c.Fabric
}

// floatEdit encodes one FuzzConfigValidate edit: field i set to v.
func floatEdit(i int, v float64) []byte {
	return binary.LittleEndian.AppendUint64([]byte{byte(i)}, math.Float64bits(v))
}

// FuzzConfigValidate holds Validate to its promise: a configuration it
// passes builds a machine that moves 1 MiB from the first node to the last
// and runs a 1 MiB kernel without panicking. Each input starts from a
// registered profile (profile, modulo the registry) at 1–64 nodes of
// 0–8 GPUs, then applies its edits: 9 bytes each, a fuzzFloats index
// and the little-endian bits of the value to store there, so NaN, ±Inf
// and subnormals are as reachable as datasheet numbers.
func FuzzConfigValidate(f *testing.F) {
	tapered := 0
	for i, p := range Profiles() {
		if p.Name == "summit-tapered-2x" {
			tapered = i
		}
		f.Add(uint8(i), uint8(35), uint8(p.Build(1).GPUsPerNode), []byte(nil))
	}
	for _, e := range [][]byte{
		floatEdit(fzTaper, math.NaN()),
		floatEdit(fzTaper, math.Inf(1)),
		floatEdit(fzTaper, 1e300),
		floatEdit(fzUplinkBW, math.NaN()),
		floatEdit(fzJitterFrac, math.NaN()),
		append(floatEdit(fzInjectionBW, 1), floatEdit(fzTaper, 2)...),
	} {
		f.Add(uint8(tapered), uint8(35), uint8(6), e)
	}
	f.Fuzz(func(t *testing.T, profile, nodes, gpus uint8, edits []byte) {
		ps := Profiles()
		cfg := ps[int(profile)%len(ps)].Build(1 + int(nodes)%64)
		cfg.GPUsPerNode = int(gpus) % 9
		for ; len(edits) >= 9; edits = edits[9:] {
			*fuzzFloats[int(edits[0])%len(fuzzFloats)](&cfg) = math.Float64frombits(binary.LittleEndian.Uint64(edits[1:9]))
		}
		if cfg.Validate() != nil {
			return
		}
		m, err := New(cfg)
		if err != nil {
			t.Fatalf("Validate passed but New failed: %v", err)
		}
		xferAt, kernAt := sim.Time(-1), sim.Time(-1)
		m.Net.Transfer(0, cfg.Nodes-1, 1<<20, sim.FiredSignal()).OnFire(m.Eng, func() { xferAt = m.Eng.Now() })
		g := m.GPUs[len(m.GPUs)-1]
		g.NewStream("s", gpu.PriorityNormal).Kernel("k", g.KernelTime(1<<20)).OnFire(m.Eng, func() { kernAt = m.Eng.Now() })
		m.Eng.Run()
		if xferAt < 0 || kernAt < 0 {
			t.Fatalf("transfer done at %v, kernel at %v: want both to complete", xferAt, kernAt)
		}
	})
}
