// Package machine assembles simulated clusters: nodes with host cores
// (PEs), GPUs, and NICs wired to one discrete-event engine. The Summit
// configuration is the calibrated default used by every experiment.
package machine

import (
	"fmt"
	"math"

	"gat/internal/gpu"
	"gat/internal/netsim"
	"gat/internal/sim"
)

// Config describes a homogeneous cluster.
type Config struct {
	// Nodes is the number of compute nodes.
	Nodes int
	// GPUsPerNode is the number of GPUs (and, in the paper's setup, the
	// number of application processes/PEs) per node.
	GPUsPerNode int
	// GPU is the device cost model.
	GPU gpu.Config
	// Net is the interconnect cost model.
	Net netsim.Config
	// Fabric, when non-nil, attaches netsim's detailed contention
	// fabric: shared per-group uplinks/downlinks (sized by UplinkBW or
	// the Taper ratio) that cross-group transfers reserve in addition
	// to the endpoint NICs. Nil keeps the NIC-only model every
	// pre-fabric profile uses, so existing results are unaffected.
	Fabric *netsim.FabricConfig
	// HostMemBW is host memory bandwidth per node in bytes/s, used for
	// intra-node host-message copies.
	HostMemBW float64
}

// Summit returns the calibrated Summit configuration with the given node
// count: 6 V100s per node, dual-rail EDR InfiniBand.
func Summit(nodes int) Config {
	return Config{
		Nodes:       nodes,
		GPUsPerNode: 6,
		GPU:         gpu.V100(),
		Net:         netsim.Summit(),
		HostMemBW:   120e9,
	}
}

// minRate is the smallest bandwidth Validate accepts, in bytes/s. No
// real link is slower. At this rate a transfer of up to about 4.6 GB
// (2^62 ns at 1 byte/s) still takes a representable sim.Time;
// sim.DurationOf panics on a longer one.
const minRate = 1

// validRate reports whether bw is a finite bandwidth of at least
// minRate. NaN fails it.
func validRate(bw float64) bool { return bw >= minRate && !math.IsInf(bw, 1) }

// Validate reports whether the configuration describes a buildable
// cluster, with an error naming the offending field otherwise. Every
// check is written so that NaN fails it.
func (c Config) Validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("machine: Nodes must be positive, got %d", c.Nodes)
	case c.GPUsPerNode <= 0:
		return fmt.Errorf("machine: GPUsPerNode must be positive, got %d", c.GPUsPerNode)
	}
	for _, r := range []struct {
		name string
		bw   float64
	}{
		{"GPU.MemBandwidth", c.GPU.MemBandwidth},
		{"GPU.CopyBandwidth", c.GPU.CopyBandwidth},
		{"Net.InjectionBW", c.Net.InjectionBW},
		{"Net.IntraNodeBW", c.Net.IntraNodeBW},
		{"HostMemBW", c.HostMemBW},
	} {
		if !validRate(r.bw) {
			return fmt.Errorf("machine: %s must be a finite rate of at least %d byte/s, got %g", r.name, minRate, r.bw)
		}
	}
	if !(c.Net.JitterFrac >= 0 && c.Net.JitterFrac < 1) {
		return fmt.Errorf("machine: Net.JitterFrac must be in [0,1), got %g", c.Net.JitterFrac)
	}
	podSize := c.Net.PodSize
	if podSize <= 0 {
		podSize = 1 // netsim.New defaults it; only the name matters here
	}
	if _, err := netsim.TopologyByName(c.Net.Topology, podSize, c.Nodes); err != nil {
		return fmt.Errorf("machine: %w", err)
	}
	if f := c.Fabric; f != nil {
		if err := netsim.ValidRouting(f.Routing); err != nil {
			return fmt.Errorf("machine: %w", err)
		}
		switch {
		case f.UplinkBW != 0 && !validRate(f.UplinkBW):
			return fmt.Errorf("machine: Fabric.UplinkBW must be 0 (derived from Taper) or a finite rate of at least %d byte/s, got %g", minRate, f.UplinkBW)
		case !(f.Taper >= 0) || math.IsInf(f.Taper, 1):
			return fmt.Errorf("machine: Fabric.Taper must be a finite ratio, not negative, got %g", f.Taper)
		case f.UplinkBW == 0 && f.Taper == 0:
			return fmt.Errorf("machine: Fabric needs UplinkBW or a Taper ratio")
		case !validRate(f.LinkBW(c.Net)):
			return fmt.Errorf("machine: Fabric.Taper %g leaves each link %g bytes/s, want a finite rate of at least %d byte/s", f.Taper, f.LinkBW(c.Net), minRate)
		case f.UplinksPerPod < 0:
			return fmt.Errorf("machine: Fabric.UplinksPerPod must not be negative, got %d", f.UplinksPerPod)
		case f.LinkOverhead < 0:
			return fmt.Errorf("machine: Fabric.LinkOverhead must not be negative, got %v", f.LinkOverhead)
		}
	}
	return nil
}

// Key is the comparable form of a Config: configurations with equal
// keys build machines that simulate identically. It holds the fabric
// by value and clears Net.JitterSeed when nothing reads it
// (netsim.Config.ReadsSeed), so runs that differ only in an unread
// seed share a key. Key is a map key, so Config must stay comparable.
type Key struct {
	cfg       Config // Fabric nil
	fabric    netsim.FabricConfig
	hasFabric bool
}

// Key returns the configuration's comparable form.
func (c Config) Key() Key {
	k := Key{cfg: c}
	if c.Fabric != nil {
		k.fabric, k.hasFabric = *c.Fabric, true
		k.cfg.Fabric = nil
	}
	if !c.Net.ReadsSeed(c.Fabric) {
		k.cfg.Net.JitterSeed = 0
	}
	return k
}

// TopologySummary names the configured switch geometry with its taper,
// e.g. "fattree", "fattree 4:1", "dragonfly 2:1" — the topology column
// of profile listings.
func (c Config) TopologySummary() string {
	name := c.Net.Topology
	if name == "" {
		name = netsim.TopoFatTree
	}
	if c.Fabric == nil {
		return name
	}
	if c.Fabric.Taper > 0 {
		return fmt.Sprintf("%s %g:1", name, c.Fabric.Taper)
	}
	return name + " fabric"
}

// RoutingSummary names the configured routing policy, e.g. "minimal"
// or "adaptive" — the routing column of profile listings. Without a
// detailed fabric there is no route choice to make, so it reports "-".
func (c Config) RoutingSummary() string {
	if c.Fabric == nil {
		return "-"
	}
	if c.Fabric.Routing == "" {
		return netsim.RoutingMinimal
	}
	return c.Fabric.Routing
}

// Machine is an instantiated cluster on a fresh simulation engine.
type Machine struct {
	Eng  *sim.Engine
	Cfg  Config
	Net  *netsim.Network
	GPUs []*gpu.Device // indexed by global PE/rank id
}

// New instantiates the cluster described by cfg, or returns the
// Validate error for an impossible configuration.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := sim.NewEngine()
	m := &Machine{
		Eng: e,
		Cfg: cfg,
		Net: netsim.New(e, cfg.Net, cfg.Nodes),
	}
	if cfg.Fabric != nil {
		// Before any traffic by construction: the network was created on
		// the line above.
		m.Net.EnableFabric(*cfg.Fabric)
	}
	total := cfg.Nodes * cfg.GPUsPerNode
	for i := 0; i < total; i++ {
		m.GPUs = append(m.GPUs, gpu.New(e, fmt.Sprintf("node%d/gpu%d", i/cfg.GPUsPerNode, i%cfg.GPUsPerNode), cfg.GPU))
	}
	return m, nil
}

// MustNew is New for configurations known valid by construction (tests,
// registered profiles); it panics on a Validate error.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// ResetTransients marks a run boundary on a machine that hosts a
// sequence of runs — a benchmark batch reusing one cluster. It panics
// if the engine still has events pending. Every transient record (engine
// signals, AllOf and delay joins, pipe and transfer records, GPU stream
// ops) returns to a free list in the event that completes it, so a
// finished run leaves nothing to free, and the next run reuses the same
// records with zero steady-state allocation. Durable state (clock,
// traffic counters, pipe busy accounting, stream pools) is preserved.
// Sweeps build a fresh machine per run instead (bench.Cell.Run) and do
// not call it.
func (m *Machine) ResetTransients() {
	if !m.Eng.Idle() {
		panic("machine: ResetTransients with events pending")
	}
}

// Metrics is the outcome of one run on a machine: its time per
// iteration and the counters behind it.
type Metrics struct {
	// TimePerIter is the average wall time per timed iteration.
	TimePerIter sim.Time
	// Total is the full simulated run time including warm-up.
	Total sim.Time
	// Events is the number of simulation events executed.
	Events uint64
	// Kernels is the total number of GPU kernels launched.
	Kernels uint64
	// NetBytes is the total bytes moved on the network.
	NetBytes int64
	// NetMsgs is the number of network transfers.
	NetMsgs uint64
	// MaxLinkUtil and MeanLinkUtil are the max/mean utilization of the
	// machine's detailed fabric links over the run (netsim
	// Fabric.Utilizations), zero on NIC-only machines. They say where a
	// run is network-bound: a taper sweep whose time grows with taper
	// shows MaxLinkUtil approaching 1 on the shared links.
	MaxLinkUtil, MeanLinkUtil float64
	// Routing names the fabric's route-choice policy ("minimal",
	// "valiant", "adaptive"; netsim.Network.RoutingName), empty on
	// NIC-only machines. Provenance for congestion studies: which
	// policy produced these utilization numbers.
	Routing string
}

// Metrics reads the engine, GPU and network counters of a finished run
// into its result, with perIter as the time per iteration and the
// current virtual time as the total.
func (m *Machine) Metrics(perIter sim.Time) Metrics {
	var kernels uint64
	for _, g := range m.GPUs {
		kernels += g.KernelsLaunched()
	}
	maxU, meanU := m.Net.LinkUtilization()
	return Metrics{
		TimePerIter:  perIter,
		Total:        m.Eng.Now(),
		Events:       m.Eng.EventsExecuted(),
		Kernels:      kernels,
		NetBytes:     m.Net.BytesMoved(),
		NetMsgs:      m.Net.Messages(),
		MaxLinkUtil:  maxU,
		MeanLinkUtil: meanU,
		Routing:      m.Net.RoutingName(),
	}
}

// Procs returns the total number of PEs/ranks (one per GPU, matching the
// paper's one-process-one-GPU mapping).
func (m *Machine) Procs() int { return m.Cfg.Nodes * m.Cfg.GPUsPerNode }

// NodeOf returns the node housing global PE/rank id p.
func (m *Machine) NodeOf(p int) int { return p / m.Cfg.GPUsPerNode }

// GPUOf returns the device bound to global PE/rank id p.
func (m *Machine) GPUOf(p int) *gpu.Device { return m.GPUs[p] }
