package bench

import (
	"sync"
	"testing"

	"gat/internal/app"
	"gat/internal/sim"
)

// TestMemoLowerBounds walks the memo's rules for a stopped run: filed
// as a lower bound, it answers a bounded query at or below its bound
// and nothing else; a higher stop raises it, a lower one does not; a
// full result replaces it and is never replaced by one.
func TestMemoLowerBounds(t *testing.T) {
	m := Options{}.WithMemo().memo
	var k memoKey
	full := app.Metrics{TimePerIter: 90, Events: 7}
	query := func(bound sim.Time, wantHit, wantOK bool) {
		t.Helper()
		r, ok, hit := m.get(k, bound)
		if hit != wantHit || ok != wantOK || (ok && r != full) || (!ok && r != (app.Metrics{})) {
			t.Fatalf("get(bound %d) = (%+v, ok %v, hit %v), want ok %v, hit %v", bound, r, ok, hit, wantOK, wantHit)
		}
	}
	query(0, false, false)
	query(100, false, false)

	m.put(k, app.Metrics{}, false, 100)
	query(0, false, false) // a query for full metrics simulates
	query(100, true, false)
	query(60, true, false)
	query(101, false, false)

	m.put(k, app.Metrics{}, false, 150)
	query(150, true, false)
	m.put(k, app.Metrics{}, false, 120)
	query(150, true, false)

	m.put(k, full, true, 200)
	query(0, true, true)
	query(60, true, true)
	query(500, true, true)

	m.put(k, app.Metrics{}, false, 1000)
	query(0, true, true)
	query(1000, true, true)

	if m.stopped != 4 || m.reused != 9 {
		t.Fatalf("stopped %d, reused %d; want 4 and 9", m.stopped, m.reused)
	}
}

// TestBoundedSearchMemo runs an ODF search whose losers stop, then a
// full run of a stopped candidate, then the search again, serially and
// on four goroutines sharing one memo. The full run simulates again
// despite the lower bound the search left; the repeated search is
// answered from the memo, stopped candidates from their lower bounds;
// and every result equals a memo-free run's.
func TestBoundedSearchMemo(t *testing.T) {
	global := [3]int{192, 192, 192}
	odfs := []int{1, 2, 4}
	ref := claimCell(quickOpt(), "reference", 1)
	wantBest, wantODF := bestODFRun(ref, "charm-d", global, odfs)
	loser := ref.Run("charm-d", app.Params{Global: global, ODF: 4})
	if wantODF == 4 {
		t.Fatalf("ODF-4 won the search; the test needs it to lose")
	}

	for _, workers := range []int{1, 4} {
		opt := quickOpt().WithMemo()
		c := claimCell(opt, "memo", 1)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for pass := 0; pass < 2; pass++ {
					if best, odf := bestODFRun(c, "charm-d", global, odfs); best != wantBest || odf != wantODF {
						t.Errorf("workers=%d pass %d: search gave ODF %d %+v, want ODF %d %+v",
							workers, pass, odf, best, wantODF, wantBest)
					}
					if pass == 0 {
						if r := c.Run("charm-d", app.Params{Global: global, ODF: 4}); r != loser {
							t.Errorf("workers=%d: full run of a stopped candidate gave %+v, want %+v", workers, r, loser)
						}
					}
				}
			}()
		}
		wg.Wait()
		// Serially: the first search simulates 3 candidates, stopping
		// ODF-4 at least; the full ODF-4 run simulates; the second
		// search is answered from the memo, 3 queries.
		if workers == 1 && (opt.Stopped() == 0 || opt.Reused() != 3) {
			t.Errorf("workers=1: stopped %d, reused %d; want > 0 and 3", opt.Stopped(), opt.Reused())
		}
	}
}
