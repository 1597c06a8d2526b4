package mpi

// Collective tags live in a reserved negative space so they never
// collide with application point-to-point tags. All ranks of one
// collective pass the same epoch, which offsets the tags so that
// successive collectives never match each other's messages;
// application code passes explicit epochs (see internal/jacobi).
const (
	tagBarrierBase   = -1 << 20
	tagAllreduceBase = -1 << 21
)

// Barrier synchronizes all ranks with a dissemination barrier:
// ceil(log2 P) rounds of small messages, the standard scalable
// implementation.
func (r *Rank) Barrier(epoch int) {
	p := r.Size()
	if p == 1 {
		r.proc.Sleep(r.w.Opt.CallOverhead)
		return
	}
	const probe = 64 // bytes per barrier message
	for round, dist := 0, 1; dist < p; round, dist = round+1, dist*2 {
		to := (r.id + dist) % p
		from := (r.id - dist + p) % p
		tag := tagBarrierBase + epoch*64 + round
		sreq := r.Isend(to, tag, probe, Host)
		rreq := r.Irecv(from, tag, Host)
		r.Waitall(sreq, rreq)
	}
}

// Allreduce reduces bytes of data across all ranks using recursive
// doubling over the largest power-of-two subgroup, with pre/post
// exchange steps for leftover ranks. It returns after the result is
// available everywhere. Only timing is modelled; the caller owns the
// actual values.
func (r *Rank) Allreduce(epoch int, bytes int64) {
	p := r.Size()
	if p == 1 {
		r.proc.Sleep(r.w.Opt.CallOverhead)
		return
	}
	// Largest power of two <= p.
	m := 1
	for m*2 <= p {
		m *= 2
	}
	rem := p - m
	base := tagAllreduceBase + epoch*256

	if r.id >= m {
		// Extra rank: fold into partner, then wait for the result.
		partner := r.id - m
		r.Wait(r.Isend(partner, base, bytes, Host))
		r.Wait(r.Irecv(partner, base+1, Host))
		return
	}
	if r.id < rem {
		r.Wait(r.Irecv(r.id+m, base, Host))
	}
	for round, dist := 0, 1; dist < m; round, dist = round+1, dist*2 {
		partner := r.id ^ dist
		tag := base + 2 + round
		sreq := r.Isend(partner, tag, bytes, Host)
		rreq := r.Irecv(partner, tag, Host)
		r.Waitall(sreq, rreq)
	}
	if r.id < rem {
		r.Wait(r.Isend(r.id+m, base+1, bytes, Host))
	}
}
