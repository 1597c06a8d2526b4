package bench

import (
	"sync"

	"gat/internal/app"
	"gat/internal/machine"
)

// memoKey is the full input of one Cell.RunWith simulation: the
// versioned app identity, the variant, the parameters after the
// sweep's iteration overrides, and the machine configuration after the
// cell's hook edited it (machine.Key, which drops a seed nothing
// reads).
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
type memo struct {
	mu     sync.Mutex
	runs   map[memoKey]app.Metrics
	reused int
}

// get returns the stored metrics for k and counts the hit.
func (m *memo) get(k memoKey) (app.Metrics, bool) {
	if m == nil {
		return app.Metrics{}, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.runs[k]
	if ok {
		m.reused++
	}
	return r, ok
}

// put stores r under k. Workers that missed on the same key all
// simulate it; their results are identical, and the first store wins.
func (m *memo) put(k memoKey, r app.Metrics) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.runs[k]; !ok {
		m.runs[k] = r
	}
}

// WithMemo returns a copy of o whose plans share one fresh memo of
// simulation results: Cell.RunWith answers a simulation that repeats an
// earlier one of those plans from the memo. The memo lives as long as
// the plans; internal/sweep gives each Sweep call its own, and
// CheckClaims one for all claims.
func (o Options) WithMemo() Options {
	o.memo = &memo{runs: make(map[memoKey]app.Metrics)}
	return o
}

// Reused returns how many Cell.RunWith calls o's memo has answered
// without simulating; zero without a memo.
func (o Options) Reused() int {
	if o.memo == nil {
		return 0
	}
	o.memo.mu.Lock()
	defer o.memo.mu.Unlock()
	return o.memo.reused
}
