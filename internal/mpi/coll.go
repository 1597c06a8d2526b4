package mpi

// Collective tags live in a reserved negative space so they never
// collide with application point-to-point tags.
const (
	tagBarrierBase   = -1 << 20
	tagAllreduceBase = -1 << 21
	tagGatherBase    = -1 << 22
	tagBcastBase     = -1 << 23
	tagReduceBase    = -1 << 24
)

// NextEpoch hands out a unique tag offset per collective invocation on
// this world. The counter lives on the World — not in a process-global
// — so concurrent sweep runs, each with a private World and engine, can
// never observe each other's epochs drifting the tag space. All ranks
// of one collective must share the epoch value, so one rank (or the
// driver) draws it and the others receive it; application code passes
// explicit epochs (see internal/jacobi).
func (w *World) NextEpoch() int {
	w.collEpoch++
	return w.collEpoch
}

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

// Bcast distributes bytes from root to every rank along a binomial
// tree rooted at root (rank ids are rotated so any root works).
func (r *Rank) Bcast(epoch, root int, bytes int64) {
	p := r.Size()
	if p == 1 {
		r.proc.Sleep(r.w.Opt.CallOverhead)
		return
	}
	me := (r.id - root + p) % p // virtual rank: root becomes 0
	base := tagBcastBase + epoch*64
	// Find the round in which this rank receives (highest set bit).
	if me != 0 {
		recvRound := 0
		for dist := 1; dist*2 <= me; dist *= 2 {
			recvRound++
		}
		dist := 1 << recvRound
		src := (me - dist + root + p) % p
		r.Wait(r.Irecv(src, base+recvRound, Host))
	}
	// Forward in every later round while the partner is in range.
	start := 1
	if me != 0 {
		for start <= me {
			start *= 2
		}
	}
	round := 0
	for d := 1; d < start; d *= 2 {
		round++
	}
	for dist := start; me+dist < p; dist *= 2 {
		dst := (me + dist + root) % p
		r.Wait(r.Isend(dst, base+round, bytes, Host))
		round++
	}
}

// Reduce folds bytes from all ranks to root along a binary tree of
// virtual ranks (root rotated to 0).
func (r *Rank) Reduce(epoch, root int, bytes int64) {
	p := r.Size()
	if p == 1 {
		r.proc.Sleep(r.w.Opt.CallOverhead)
		return
	}
	me := (r.id - root + p) % p
	base := tagReduceBase + epoch*4
	for _, c := range []int{2*me + 1, 2*me + 2} {
		if c < p {
			src := (c + root) % p
			r.Wait(r.Irecv(src, base, Host))
		}
	}
	if me != 0 {
		dst := ((me-1)/2 + root) % p
		r.Wait(r.Isend(dst, base, bytes, Host))
	}
}

// Gather collects bytes from every rank at root (timing model: each
// non-root rank sends to root; root receives all).
func (r *Rank) Gather(epoch int, root int, bytes int64) {
	base := tagGatherBase + epoch*4
	if r.id == root {
		reqs := make([]Request, 0, r.Size()-1)
		for src := 0; src < r.Size(); src++ {
			if src == root {
				continue
			}
			reqs = append(reqs, r.Irecv(src, base, Host))
		}
		r.Waitall(reqs...)
		return
	}
	r.Wait(r.Isend(root, base, bytes, Host))
}
