package charm

import "gat/internal/sim"

// Migrate moves element ix to PE dst, transferring stateBytes of chare
// state across the machine. The element is unavailable during the move;
// messages sent after the location update routes to the new PE. done,
// if non-nil, runs when the migration completes.
//
// Migratability is the adaptive-runtime capability overdecomposition
// enables (§I): the paper uses it to motivate ODF > 1 even where
// overlap alone does not pay.
func (a *Array) Migrate(ix Index, dst int, stateBytes int64, done func()) {
	rt := a.rt
	el := a.Elem(ix)
	src := a.peOf[el.Flat]
	if dst == src {
		if done != nil {
			rt.Engine().Schedule(0, done)
		}
		return
	}
	eng := rt.Engine()
	srcNode, dstNode := rt.M.NodeOf(src), rt.M.NodeOf(dst)
	arrived := rt.M.Net.Transfer(srcNode, dstNode, stateBytes+rt.Opt.Envelope, sim.FiredSignal())
	arrived.OnFire(eng, func() {
		a.peOf[el.Flat] = dst
		if done != nil {
			done()
		}
	})
}

// RefineAssign improves an existing placement by moving elements off
// overloaded PEs onto underloaded ones until the maximum bin is within
// tolerance of the average — the Charm++ RefineLB strategy. Unlike LPT
// it preserves locality: elements that are not causing imbalance stay
// put, keeping migration traffic proportional to the imbalance.
func RefineAssign(loads []sim.Time, current []int, numPE int, tolerance float64) []int {
	out := append([]int(nil), current...)
	binLoad := make([]sim.Time, numPE)
	var total sim.Time
	for i, pe := range current {
		binLoad[pe] += loads[i]
		total += loads[i]
	}
	avg := total / sim.Time(numPE)
	limit := sim.Time(float64(avg) * (1 + tolerance))
	for moves := 0; moves <= len(loads); moves++ {
		maxPE, minPE := 0, 0
		for pe := 1; pe < numPE; pe++ {
			if binLoad[pe] > binLoad[maxPE] {
				maxPE = pe
			}
			if binLoad[pe] < binLoad[minPE] {
				minPE = pe
			}
		}
		if binLoad[maxPE] <= limit {
			break
		}
		// Move the largest element on maxPE that does not overshoot the
		// receiving bin past the donor.
		gap := binLoad[maxPE] - binLoad[minPE]
		best := -1
		for i := range loads {
			if out[i] != maxPE || loads[i] <= 0 || loads[i] >= gap {
				continue
			}
			if best < 0 || loads[i] > loads[best] {
				best = i
			}
		}
		if best < 0 {
			break
		}
		out[best] = minPE
		binLoad[maxPE] -= loads[best]
		binLoad[minPE] += loads[best]
	}
	return out
}

// RebalanceGreedy measures each element's accumulated load (host busy
// time plus launched device time), computes a refined assignment,
// migrates every element whose PE changes, and fires the returned
// signal when all migrations complete. Load counters reset so the next
// period measures fresh load.
func (a *Array) RebalanceGreedy(stateBytes int64) *sim.Signal {
	rt := a.rt
	loads := make([]sim.Time, a.Len())
	for i, el := range a.elems {
		loads[i] = el.Load()
		el.Busy = 0
		el.GPULoad = 0
	}
	assign := RefineAssign(loads, a.peOf, rt.NumPEs(), 0.05)
	var moves int
	for i := range a.elems {
		if assign[i] != a.peOf[i] {
			moves++
		}
	}
	done := sim.NewSignal()
	if moves == 0 {
		done.Fire(rt.Engine())
		return done
	}
	counter := sim.NewCounter(moves)
	counter.Done().Chain(rt.Engine(), done)
	for i, el := range a.elems {
		if assign[i] != a.peOf[i] {
			a.Migrate(el.Idx, assign[i], stateBytes, func() { counter.Add(rt.Engine()) })
		}
	}
	return done
}
