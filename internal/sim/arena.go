package sim

// Arena is a typed bump allocator for a run's transient records:
// transfer ops, request handles, and similar objects that are created
// on the event hot path, live until the run ends, and are never freed
// individually. New hands out pointers into chunked backing arrays, so
// the steady-state cost of a record is one pointer bump instead of one
// garbage-collected heap object — and the records of one chunk sit
// contiguously, which the event loop's access pattern rewards.
//
// Records handed out by New must not outlive the next Reset: Reset
// frees every record at once (recycling the chunks, zeroed, for the
// next run), so a *T retained across it is a dangling — silently
// reused — record. The simulator's convention is one arena set per
// Engine (or per component bound to one), reset together at run
// boundaries or simply discarded with the engine.
//
// The zero value is ready to use.
type Arena[T any] struct {
	full  [][]T // fully carved chunks, live since the last Reset
	spare [][]T // zeroed chunks banked by Reset, reused before making new
	cur   []T   // chunk currently being carved
	idx   int   // next free slot in cur
	n     int   // records handed out since the last Reset
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
	a.n++
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

// Allocated returns the number of records handed out since the last
// Reset, for diagnostics and capacity reporting.
func (a *Arena[T]) Allocated() int { return a.n }

// Reset frees every record at once, banking the chunks — zeroed, so
// stale record pointers are released and the next run's records start
// from zero values — for reuse. The caller must guarantee no *T from
// before the Reset is still referenced — for engine-owned arenas that
// means the run is over and its events, signals and handles are all
// dead.
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
	a.n = 0
}

// FreeList recycles records that nothing references once their last
// event has run — transfer ops and match links whose completion goes
// straight to one callback, so no caller ever holds a pointer into
// them. Get pops a banked record, or allocates a fresh one when every
// record is in use; Put zeroes a record and banks it. The records of a
// free list are thus bounded by those in use at once rather than by
// all a run creates, and they survive arena resets.
//
// A record may be Put only when no pointer into it — above all, none to
// a Signal embedded in it — is still held: the next Get hands the same
// memory to a new owner.
//
// The zero value is ready to use.
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
	l.free = append(l.free, p)
}

// Len returns the number of banked records.
func (l *FreeList[T]) Len() int { return len(l.free) }
