// Package profile writes the host profiles behind the commands'
// -cpuprofile and -memprofile flags in pprof format (go tool pprof
// FILE). A profile samples the host process, never the simulation, so
// it changes no output byte.
package profile

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start creates the files cpuPath and memPath name, either of which may
// be empty to skip that profile, and starts the CPU profile. The
// returned stop ends the CPU profile, writes the heap profile —
// allocations since the process started and the live heap after a
// collection — and closes both files. Errors name the flag.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	cpu, err := create("cpuprofile", cpuPath)
	if err != nil {
		return nil, err
	}
	mem, err := create("memprofile", memPath)
	if err != nil {
		closeFile(cpu)
		return nil, err
	}
	if cpu != nil {
		if err := pprof.StartCPUProfile(cpu); err != nil {
			closeFile(cpu)
			closeFile(mem)
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				closeFile(mem)
				return fmt.Errorf("-cpuprofile: %w", err)
			}
		}
		if mem != nil {
			runtime.GC() // bring the live-heap figures up to date
			err := pprof.WriteHeapProfile(mem)
			if cerr := mem.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return fmt.Errorf("-memprofile: %w", err)
			}
		}
		return nil
	}, nil
}

// create creates the file a profile flag names, or returns nil for an
// unset flag.
func create(flagName, path string) (*os.File, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("-%s: %w", flagName, err)
	}
	return f, nil
}

// closeFile closes f, if any, on an error path, where the error that
// aborts the profile is the one to report.
func closeFile(f *os.File) {
	if f != nil {
		_ = f.Close()
	}
}
