package netsim

import "gat/internal/sim"

// Additional interconnect cost models beyond the paper's calibrated
// Summit fat tree. Illustrative, from public latency/bandwidth figures;
// not calibrated the way Summit() is.

// Slingshot returns an illustrative HPE Slingshot-11 dragonfly-class
// interconnect with the given aggregate per-node injection bandwidth
// (Perlmutter GPU nodes and Frontier nodes both carry four 200 Gb/s
// NICs, ~25 GB/s each) and intra-node peer bandwidth (NVLink3 on
// Perlmutter, Infinity Fabric on Frontier).
func Slingshot(injectionBW, intraNodeBW float64) Config {
	return Config{
		LatencyBase:           1700 * sim.Nanosecond,
		LatencyPerHop:         350 * sim.Nanosecond,
		InjectionBW:           injectionBW,
		NICOverhead:           700 * sim.Nanosecond,
		IntraNodeBW:           intraNodeBW,
		IntraNodeLatency:      1700 * sim.Nanosecond,
		GPUDirectOverhead:     350 * sim.Nanosecond,
		RendezvousThreshold:   64 << 10,
		PipelineChunkOverhead: 12 * sim.Microsecond,
		PipelineChunkSize:     1 << 20,
		PodSize:               16,
	}
}
