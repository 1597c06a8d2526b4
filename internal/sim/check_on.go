//go:build gatcheck

package sim

// checkRecycle is on in the gatcheck build (go test -tags gatcheck):
// a free list marks each record it is handed dead and never reuses it,
// and every method on a dead *Signal panics, so a handle kept past its
// signal's firing fails loudly instead of reading a later operation's
// record.
const checkRecycle = true
