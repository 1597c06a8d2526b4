package gpu

import "gat/internal/sim"

// Additional device cost models beyond the paper's calibrated V100.
// These are *illustrative* profiles built from public datasheet numbers
// (memory roofline, host-link bandwidth) with launch overheads
// extrapolated from the V100 calibration — not validated against the
// real machines the way V100/Summit is.

// A100 returns an illustrative cost model for an NVIDIA A100-40GB as
// deployed on Perlmutter-class nodes (HBM2e roofline, PCIe 4.0 host
// link, faster front-end than Volta).
func A100() Config {
	return Config{
		MemBandwidth:      1555e9,
		CopyBandwidth:     25e9,
		CopySetup:         1500 * sim.Nanosecond,
		KernelLaunchHost:  5000 * sim.Nanosecond,
		CopyLaunchHost:    3000 * sim.Nanosecond,
		KernelDispatch:    1000 * sim.Nanosecond,
		GraphLaunchHost:   7000 * sim.Nanosecond,
		GraphNodeHost:     700 * sim.Nanosecond,
		GraphNodeDispatch: 500 * sim.Nanosecond,
		SyncOverhead:      3500 * sim.Nanosecond,
		MemCapacity:       40 << 30,
	}
}

// MI250X returns an illustrative cost model for one GCD of an AMD
// MI250X as deployed on Frontier-class nodes (HBM2e roofline, Infinity
// Fabric host link, HIP launch overheads slightly above CUDA's).
func MI250X() Config {
	return Config{
		MemBandwidth:      1600e9,
		CopyBandwidth:     36e9,
		CopySetup:         1700 * sim.Nanosecond,
		KernelLaunchHost:  7000 * sim.Nanosecond,
		CopyLaunchHost:    3800 * sim.Nanosecond,
		KernelDispatch:    1300 * sim.Nanosecond,
		GraphLaunchHost:   9000 * sim.Nanosecond,
		GraphNodeHost:     900 * sim.Nanosecond,
		GraphNodeDispatch: 700 * sim.Nanosecond,
		SyncOverhead:      4200 * sim.Nanosecond,
		MemCapacity:       64 << 30,
	}
}
