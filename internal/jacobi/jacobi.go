// Package jacobi implements the Jacobi3D proxy application from the
// paper on the simulated machine, in all four measured variants —
// MPI with host staging (MPI-H), CUDA-aware MPI (MPI-D), Charm-style
// tasks with host staging (Charm-H), and Charm-style tasks with
// GPU-aware communication through the Channel API (Charm-D) — plus the
// before/after host-synchronization optimizations of §III-C, the kernel
// fusion strategies of §III-D1, and the CUDA-graph execution of
// §III-D2.
//
// The subpackage compute holds a real numerical Jacobi solver used by
// the test suite to validate the method itself; this package models
// execution time.
package jacobi

import (
	"fmt"
	"strings"

	"gat/internal/sim"
)

// Cost-model constants for the memory-bound kernels (bytes of device
// memory traffic per grid cell).
const (
	// ElemBytes is the size of one grid element (double precision).
	ElemBytes = 8
	// UpdateBytesPerCell is the traffic of the 7-point Jacobi update:
	// one streamed read, one write, plus cached neighbor reuse.
	UpdateBytesPerCell = 24
	// PackBytesPerCell is the traffic of copying one halo cell between
	// the block and a contiguous communication buffer (read + write).
	PackBytesPerCell = 16
)

// FusedDivergenceFactor is the slowdown of a fused (un)packing kernel
// relative to the sum of its parts, from the consecutive-face control
// divergence described in §III-D1.
const FusedDivergenceFactor = 1.1

// Fusion selects the kernel fusion strategy of §III-D1.
type Fusion int

// Fusion strategies. Higher values fuse more kernels.
const (
	// FusionNone launches one kernel per face plus the update kernel.
	FusionNone Fusion = iota
	// FusionA fuses the six packing kernels into one.
	FusionA
	// FusionB fuses packing kernels and unpacking kernels (two fused
	// kernels).
	FusionB
	// FusionC fuses unpacking, update, and packing into a single kernel
	// per iteration.
	FusionC
)

// ParseFusion parses a fusion strategy name as used by flags and
// scenario parameters: "" and "none" are FusionNone; "A".."C" (either
// case) the fused strategies.
func ParseFusion(s string) (Fusion, error) {
	switch strings.ToUpper(s) {
	case "", "NONE":
		return FusionNone, nil
	case "A":
		return FusionA, nil
	case "B":
		return FusionB, nil
	case "C":
		return FusionC, nil
	default:
		return 0, fmt.Errorf("jacobi: bad fusion strategy %q, want none|A|B|C", s)
	}
}

// WeakGlobal grows the base per-node grid with the node count, doubling
// one dimension per node doubling (z, then y, then x), matching the
// paper's weak-scaling setup (§IV-B).
func WeakGlobal(base [3]int, nodes int) [3]int {
	g := base
	axis := 2
	for f := nodes; f > 1; f /= 2 {
		g[axis] *= 2
		axis--
		if axis < 0 {
			axis = 2
		}
	}
	return g
}

func (f Fusion) String() string {
	switch f {
	case FusionNone:
		return "none"
	case FusionA:
		return "A"
	case FusionB:
		return "B"
	case FusionC:
		return "C"
	default:
		return fmt.Sprintf("Fusion(%d)", int(f))
	}
}

// Config describes one Jacobi3D run.
type Config struct {
	// Global is the global grid size in cells.
	Global [3]int
	// Warmup is the number of untimed iterations (paper: 10).
	Warmup int
	// Iters is the number of timed iterations (paper: 100).
	Iters int
}

// DefaultIterations fills in the iteration counts used by all
// experiments in this reproduction: 3 warm-up + 10 timed (the paper's
// 10+100 scaled down; per-iteration times are steady after warm-up, so
// the mean is unaffected while simulated event counts stay tractable).
func (c Config) DefaultIterations() Config {
	if c.Warmup == 0 {
		c.Warmup = 3
	}
	if c.Iters == 0 {
		c.Iters = 10
	}
	return c
}

// Result is the outcome of one run.
type Result struct {
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
	// MaxLinkUtil and MeanLinkUtil summarize the detailed fabric's
	// link utilization over the run (zero on NIC-only machines) — the
	// congestion signal of taper studies.
	MaxLinkUtil, MeanLinkUtil float64
	// Routing names the fabric's routing policy (empty on NIC-only
	// machines) — provenance for the utilization numbers above.
	Routing string
}

func (r Result) String() string {
	return fmt.Sprintf("%v/iter (total %v, %d kernels, %d msgs, %.1f MB moved)",
		r.TimePerIter, r.Total, r.Kernels, r.NetMsgs, float64(r.NetBytes)/1e6)
}

// updateKernelBytes is the device traffic of a full-block update.
func updateKernelBytes(vol int64) int64 { return vol * UpdateBytesPerCell }

// packKernelBytes is the device traffic of packing one face.
func packKernelBytes(faceCells int64) int64 { return faceCells * PackBytesPerCell }

// fusedPackBytes is the traffic of a fused kernel covering several
// faces, including the divergence penalty.
func fusedPackBytes(totalFaceCells int64) int64 {
	return int64(float64(totalFaceCells*PackBytesPerCell) * FusedDivergenceFactor)
}

// fusedAllBytes is the traffic of strategy C's single kernel: unpack +
// update + pack.
func fusedAllBytes(vol, totalFaceCells int64) int64 {
	return updateKernelBytes(vol) + int64(float64(2*totalFaceCells*PackBytesPerCell)*FusedDivergenceFactor)
}
