package bench

import (
	"sync"

	"gat/internal/app"
	"gat/internal/machine"
	"gat/internal/sim"
)

// memoKey is the full input of one Cell.RunWith simulation: the app
// name, the variant, the parameters after the sweep's iteration
// overrides, and the machine configuration after the cell's hook
// edited it (machine.Key, which drops a seed nothing reads). A
// bounded run's bound is not part of it: the bound decides only how
// far the simulation goes, never what it computes.
type memoKey struct {
	app, variant string
	params       app.Params
	machine      machine.Key
}

// memo stores the metrics of one sweep's simulations by their full
// input, so a cell that repeats an earlier simulation of the sweep —
// Fig 9's graphs-off runs are Fig 8's points, Fig 6's optimized ODF-4
// runs are candidates of Fig 7's ODF search — reuses its metrics. A
// nil memo stores nothing.
//
// A simulation stopped at its bound (Cell.runBounded) is filed as a
// lower bound, never as a result: floors[k] = B says the run's
// TimePerIter is at least B. It answers a later bounded query whose
// bound is at most B; any other query simulates. A full result
// replaces a lower bound, and a lower bound never replaces a full
// result.
type memo struct {
	mu      sync.Mutex
	runs    map[memoKey]app.Metrics
	floors  map[memoKey]sim.Time
	reused  int // queries answered without simulating
	stopped int // simulations stopped at their bound
}

// get answers a query for k from the memo, counting the hit: a full
// result answers any query (ok true), a lower bound of at least bound
// (> 0) a bounded one (ok false). hit is false when the query must
// simulate.
func (m *memo) get(k memoKey, bound sim.Time) (r app.Metrics, ok, hit bool) {
	if m == nil {
		return app.Metrics{}, false, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if full, found := m.runs[k]; found {
		m.reused++
		return full, true, true
	}
	if b, found := m.floors[k]; found && bound > 0 && bound <= b {
		m.reused++
		return app.Metrics{}, false, true
	}
	return app.Metrics{}, false, false
}

// put files a simulation of k: its full result r when ok, else the
// lower bound its stop proved. Workers that missed on the same key all
// simulate it; their full results are identical, and the first store
// wins.
func (m *memo) put(k memoKey, r app.Metrics, ok bool, bound sim.Time) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !ok {
		m.stopped++
		if _, full := m.runs[k]; !full && bound > m.floors[k] {
			m.floors[k] = bound
		}
		return
	}
	if _, full := m.runs[k]; !full {
		m.runs[k] = r
		delete(m.floors, k)
	}
}

// WithMemo returns a copy of o whose plans share one fresh memo of
// simulation results: Cell.RunWith answers a simulation that repeats an
// earlier one of those plans from the memo. The memo lives as long as
// the plans; internal/sweep gives each Sweep call its own, and
// CheckClaims one for all claims.
func (o Options) WithMemo() Options {
	o.memo = &memo{runs: make(map[memoKey]app.Metrics), floors: make(map[memoKey]sim.Time)}
	return o
}

// Reused returns how many runs o's memo has answered without
// simulating; zero without a memo.
func (o Options) Reused() int {
	if o.memo == nil {
		return 0
	}
	o.memo.mu.Lock()
	defer o.memo.mu.Unlock()
	return o.memo.reused
}

// Stopped returns how many of the simulations under o's memo stopped
// at their bound, as ODF candidates that could not beat the best so
// far; zero without a memo.
func (o Options) Stopped() int {
	if o.memo == nil {
		return 0
	}
	o.memo.mu.Lock()
	defer o.memo.mu.Unlock()
	return o.memo.stopped
}
