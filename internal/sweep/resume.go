package sweep

import "gat/internal/sweep/store"

// Sweep resume: a previous (typically partial or smaller) gat-sweep-v3
// report becomes a run source, so an interrupted or narrower sweep is
// completed by simulating only the specs the report doesn't already
// answer. Every v3 run record carries its fingerprint and its own
// value, so resume matches exactly — same model salt, composition,
// coordinates and jitter — and a resumed point is as sound as a store
// hit.

// Prior maps a prior report's run fingerprints to their records: the
// point (Record.Point) and the host cost the reuse saves (WallNS). A
// nil Prior answers nothing.
type Prior map[string]store.Record

// NewPrior indexes a parsed report for resume lookups. Runs without a
// key are left out, so resume re-runs exactly the missing and keyless
// specs: blanking a run's key in a report forces its re-run.
func NewPrior(rep *Report) Prior {
	p := Prior{}
	for _, f := range rep.Figures {
		for _, run := range f.Runs {
			if run.Key != "" {
				p[run.Key] = run.Record
			}
		}
	}
	return p
}
