package gpu

import "fmt"

// Device memory accounting. The paper sizes its problems against the
// V100's 16 GB of HBM2 (the 1536^3-per-node case uses ~9 GB per GPU,
// §IV-B); the allocator enforces that the modelled working set actually
// fits, which catches miscalibrated experiment configurations at setup
// time instead of producing silently impossible runs.

// MemCapacityV100 is the HBM2 capacity of one V100.
const MemCapacityV100 int64 = 16 << 30

// Alloc reserves bytes of device memory for the rest of the run: a
// simulated workload allocates its working set at setup and never
// frees it. It panics if the device would exceed its capacity: an
// experiment that does not fit on the GPU is a configuration error, not
// a runtime condition.
func (d *Device) Alloc(name string, bytes int64) {
	if bytes < 0 {
		panic("gpu: negative allocation")
	}
	if d.memUsed+bytes > d.memCapacity {
		panic(fmt.Sprintf("gpu: %s out of memory: %d + %d > %d bytes (%s)",
			d.name, d.memUsed, bytes, d.memCapacity, name))
	}
	d.memUsed += bytes
}

// MemPeak returns the high-water mark of device memory use: with no
// frees, the sum of all allocations so far.
func (d *Device) MemPeak() int64 { return d.memUsed }

// MemCapacity returns the device memory capacity.
func (d *Device) MemCapacity() int64 { return d.memCapacity }
