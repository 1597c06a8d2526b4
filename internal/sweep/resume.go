package sweep

import (
	"gat/internal/bench"
)

// Sweep resume: a previous (typically partial or smaller) gat-sweep-v3
// report becomes a run source, so an interrupted or narrower sweep is
// completed by simulating only the specs the report doesn't already
// answer. Every v3 run record carries its fingerprint and its own
// value, so resume matches exactly — same model salt, composition,
// coordinates and jitter — and a resumed point is as sound as a store
// hit.

// PriorHit is one reusable result: the point and the host cost the
// reuse saves (the prior report's wall_ns for the run).
type PriorHit struct {
	Point  bench.Point
	WallNS int64
}

// Prior maps a prior report's run fingerprints to their results. A nil
// Prior answers nothing.
type Prior map[string]PriorHit

// NewPrior indexes a parsed report for resume lookups. Runs the report
// marks as failed, and runs without a key, are left out: resume re-runs
// exactly the missing, failed and keyless specs.
func NewPrior(rep *Report) Prior {
	p := Prior{}
	for _, f := range rep.Figures {
		for _, run := range f.Runs {
			if run.Error != "" || run.Key == "" {
				continue
			}
			p[run.Key] = PriorHit{
				Point: bench.Point{
					Nodes: run.X, Value: run.Value, Meta: run.Meta,
					MaxLinkUtil: run.MaxLinkUtil, MeanLinkUtil: run.MeanLinkUtil,
					Routing: run.Routing,
				},
				WallNS: run.WallNS,
			}
		}
	}
	return p
}
