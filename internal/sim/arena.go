package sim

// Arena is a typed bump allocator for records that live until a run
// ends and are never freed individually: the requests of mpi.World,
// which ranks keep until the world is reset. New hands out pointers
// into chunked backing arrays, so the steady-state cost of a record is
// one pointer bump instead of one garbage-collected heap object.
// Records that complete within a run go through a FreeList instead.
//
// Records handed out by New must not outlive the next Reset: Reset
// frees every record at once (recycling the chunks, zeroed, for the
// next run), so a *T retained across it is a dangling — silently
// reused — record.
//
// The zero value is ready to use.
type Arena[T any] struct {
	full  [][]T // fully carved chunks, live since the last Reset
	spare [][]T // zeroed chunks banked by Reset, reused before making new
	cur   []T   // chunk currently being carved
	idx   int   // next free slot in cur
}

// arenaChunk is the records-per-chunk granularity. Large enough that
// chunk turnover vanishes from steady-state profiles, small enough that
// an almost-idle arena wastes little.
const arenaChunk = 256

// New returns a pointer to a zeroed record that stays valid until
// Reset. The record is zero-initialized Go memory: embedded Signals,
// slices and pointers start in their zero state exactly as a fresh
// heap allocation would.
//
//gat:hotpath
func (a *Arena[T]) New() *T {
	if a.idx == len(a.cur) {
		a.grow()
	}
	p := &a.cur[a.idx]
	a.idx++
	return p
}

// grow retires the current chunk and installs a fresh one — banked by
// an earlier Reset when possible, so a reset-and-rerun cycle reaches a
// steady state where this path allocates nothing.
func (a *Arena[T]) grow() {
	if a.cur != nil {
		a.full = append(a.full, a.cur)
	}
	if k := len(a.spare); k > 0 {
		a.cur = a.spare[k-1]
		a.spare[k-1] = nil
		a.spare = a.spare[:k-1]
	} else {
		//gat:alloc-ok cold chunk-grow site, one make per arenaChunk records until Reset banks enough chunks
		a.cur = make([]T, arenaChunk)
	}
	a.idx = 0
}

// Reset frees every record at once, banking the chunks — zeroed, so
// stale record pointers are released and the next run's records start
// from zero values — for reuse. The caller must guarantee no *T from
// before the Reset is still referenced.
//
//gat:hotpath
func (a *Arena[T]) Reset() {
	for _, c := range a.full {
		clear(c)
	}
	a.spare = append(a.spare, a.full...)
	clear(a.full)
	a.full = a.full[:0]
	if a.idx > 0 {
		clear(a.cur[:a.idx])
	}
	a.idx = 0
}

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
