package sim

// FreeList recycles a record once its last event has run, so a run's
// records of one kind are bounded by those in use at once rather than
// by all the run creates. Get pops a banked record, or allocates a
// fresh one when every record is in use; Put zeroes a record and banks
// it. A record may be Put only when no pointer into it is still held,
// except through a handed-out signal, which goes back through Recycle
// in the event that fires it (see Signal).
//
// In the gatcheck build no record is ever banked and Recycle marks the
// signal dead, so a stale handle panics instead of reaching a later
// owner. The zero value is ready to use.
type FreeList[T any] struct{ free []*T }

// Get returns a zeroed record.
//
//gat:hotpath
func (l *FreeList[T]) Get() *T {
	if k := len(l.free); k > 0 {
		p := l.free[k-1]
		l.free[k-1] = nil
		l.free = l.free[:k-1]
		return p
	}
	return new(T)
}

// Put zeroes p, dropping the references it holds, and banks it for the
// next Get.
//
//gat:hotpath
func (l *FreeList[T]) Put(p *T) {
	var zero T
	*p = zero
	if checkRecycle {
		return
	}
	l.free = append(l.free, p)
}

// Recycle is Put for a record p whose embedded signal sig has just
// fired: sig keeps its generation, so every SignalRef to it reads fired
// after p is reused.
//
//gat:hotpath
func (l *FreeList[T]) Recycle(p *T, sig *Signal) {
	if checkRecycle {
		sig.dead = true
		return
	}
	gen := sig.gen
	l.Put(p)
	sig.gen = gen
}

// Recycles reports whether free lists reuse records, as they do except
// in the gatcheck build; tests of reuse and allocation bounds skip
// without it.
const Recycles = !checkRecycle

// Len returns the number of banked records.
func (l *FreeList[T]) Len() int { return len(l.free) }
