package jacobi

import (
	"gat/internal/gpu"
	"gat/internal/machine"
	"gat/internal/mpi"
	"gat/internal/sim"
)

// MPIOpts selects the MPI variant behaviour.
type MPIOpts struct {
	// Device enables CUDA-aware communication (MPI-D): halo buffers are
	// passed to the library on the device. Otherwise the application
	// stages through host buffers (MPI-H).
	Device bool
	// Overlap enables the manual interior/exterior split of Fig 1b,
	// overlapping the interior update with the halo exchange.
	Overlap bool
	// ResidualEvery, when positive, performs a global residual
	// allreduce every that many iterations — the convergence check a
	// production Jacobi solver carries that the proxy omits.
	ResidualEvery int
}

// RunMPI executes Jacobi3D with the MPI runtime on machine m and
// returns the measured result. One rank per GPU; the global grid is
// decomposed over all ranks with minimal surface area.
func RunMPI(m *machine.Machine, cfg Config, opts MPIOpts) machine.Metrics {
	return RunMPIWorld(mpi.NewWorld(m, mpi.DefaultOptions()), cfg, opts)
}

// RunMPIWorld is RunMPI on a caller-provided world, so a benchmark can
// reuse one world across consecutive runs on the same machine. Every
// record of a run, requests included, recycles as it completes, so
// neither the world nor the machine needs a reset beyond the boundary
// check of Machine.ResetTransients.
func RunMPIWorld(w *mpi.World, cfg Config, opts MPIOpts) machine.Metrics {
	cfg = cfg.DefaultIterations()
	m := w.M
	d := NewDecomp(cfg.Global, w.Size())

	kind := mpi.Host
	if opts.Device {
		kind = mpi.Device
	}
	total := cfg.Warmup + cfg.Iters
	var tWarm, tEnd sim.Time
	warmEpoch, endEpoch := 1_000_001, 1_000_002

	w.Run(func(r *mpi.Rank) {
		dev := r.GPU()
		gcfg := dev.Config()
		blk := d.BlockFlat(r.ID())
		nbrs := blk.Neighbors()
		// Two block copies plus send/recv halo buffers must fit in
		// device memory (the paper's 1536^3-per-node case uses ~9 GB
		// of the V100's 16 GB, §IV-B).
		dev.Alloc("jacobi/grids", 2*blk.Volume()*ElemBytes)
		dev.Alloc("jacobi/halos", 2*blk.TotalFaceCells()*ElemBytes)
		packS := dev.NewStream("pack", gpu.PriorityHigh)
		d2hS := dev.NewStream("d2h", gpu.PriorityHigh)
		h2dS := dev.NewStream("h2d", gpu.PriorityHigh)
		updS := dev.NewStream("update", gpu.PriorityNormal)
		p := r.Proc()

		// Per-iteration scratch, hoisted out of the loop and reset with
		// [:0] so the steady state allocates nothing. The rank waits on
		// these signals after Compute sleeps, and a signal recycles as
		// it fires, so it keeps references.
		packSigs := make([]sim.SignalRef, 0, len(nbrs))
		d2hSigs := make([]sim.SignalRef, 0, len(nbrs))
		unpackSigs := make([]sim.SignalRef, 0, len(nbrs))
		reqs := make([]mpi.Request, 0, 2*len(nbrs))

		// Per-neighbor constants, computed once: the loop below runs
		// every simulated iteration, and the geometry arithmetic is
		// identical each time.
		type nbrPlan struct {
			peer      int
			face      int   // send tag offset; Opposite(face) is the recv offset
			recvOff   int   // Opposite(face), precomputed
			faceBytes int64 // halo message size
			packBytes int64 // pack/unpack kernel traffic
		}
		plan := make([]nbrPlan, len(nbrs))
		for i, nb := range nbrs {
			plan[i] = nbrPlan{
				peer:      d.Flatten(nb.Idx),
				face:      nb.Face,
				recvOff:   Opposite(nb.Face),
				faceBytes: blk.FaceBytes(nb.Face),
				packBytes: packKernelBytes(blk.FaceCells(nb.Face / 2)),
			}
		}
		// Update kernel traffic (exterior only under manual overlap).
		vol := blk.Volume()
		if opts.Overlap {
			vol -= blk.InteriorVolume()
		}
		updKernelTraffic := updateKernelBytes(vol)
		interiorTraffic := updateKernelBytes(blk.InteriorVolume())

		for iter := 0; iter < total; iter++ {
			if iter == cfg.Warmup {
				r.Barrier(warmEpoch)
				if r.ID() == 0 {
					tWarm = r.Engine().Now()
				}
			}
			// Pack halo faces on the high-priority stream.
			packSigs = packSigs[:0]
			d2hSigs = d2hSigs[:0]
			for i := range plan {
				nb := &plan[i]
				r.Compute(gcfg.KernelLaunchHost)
				pack := packS.KernelBytes("pack", nb.packBytes).Ref()
				packSigs = append(packSigs, pack)
				if !opts.Device {
					r.Compute(gcfg.CopyLaunchHost)
					d2hS.WaitSignal(pack.Signal())
					d2hSigs = append(d2hSigs, d2hS.Copy(gpu.D2H, nb.faceBytes).Ref())
				}
			}
			// The send buffers must be ready before posting sends.
			r.Compute(gcfg.SyncOverhead)
			if opts.Device {
				p.WaitAll(packSigs...)
			} else {
				p.WaitAll(d2hSigs...)
			}

			// Non-blocking halo exchange.
			reqs = reqs[:0]
			for i := range plan {
				nb := &plan[i]
				reqs = append(reqs,
					r.Irecv(nb.peer, iter*NumFaces+nb.recvOff, kind),
					r.Isend(nb.peer, iter*NumFaces+nb.face, nb.faceBytes, kind))
			}

			var interior sim.SignalRef
			if opts.Overlap {
				r.Compute(gcfg.KernelLaunchHost)
				interior = updS.KernelBytes("interior", interiorTraffic).Ref()
			}

			r.Waitall(reqs...)

			// Unpack received halos; host staging needs H2D first.
			unpackSigs = unpackSigs[:0]
			for i := range plan {
				nb := &plan[i]
				if !opts.Device {
					r.Compute(gcfg.CopyLaunchHost)
					h2d := h2dS.Copy(gpu.H2D, nb.faceBytes)
					packS.WaitSignal(h2d)
				}
				r.Compute(gcfg.KernelLaunchHost)
				unpackSigs = append(unpackSigs,
					packS.KernelBytes("unpack", nb.packBytes).Ref())
			}

			// Update (exterior only under manual overlap).
			r.Compute(gcfg.KernelLaunchHost)
			for _, s := range unpackSigs {
				updS.WaitSignal(s.Signal())
			}
			upd := updS.KernelBytes("update", updKernelTraffic).Ref()

			// End-of-iteration device synchronization (sequential MPI
			// control flow).
			r.Compute(gcfg.SyncOverhead)
			if interior != (sim.SignalRef{}) {
				p.Wait(interior.Signal())
			}
			p.Wait(upd.Signal())

			if opts.ResidualEvery > 0 && (iter+1)%opts.ResidualEvery == 0 {
				// Global residual check: one 8-byte max-allreduce.
				r.Allreduce(2_000_000+iter, 8)
			}
		}
		r.Barrier(endEpoch)
		if r.ID() == 0 {
			tEnd = r.Engine().Now()
		}
	})

	return m.Metrics((tEnd - tWarm) / sim.Time(cfg.Iters))
}
