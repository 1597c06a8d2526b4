// Package bench is the experiment harness: one registered scenario per
// figure of the paper's evaluation (§IV), each reproducing the figure's
// series — workload, parameter sweep, baselines — on the simulated
// machine and emitting the same rows the paper plots.
//
// A scenario does not run anything itself: it compiles to a Plan, a
// flat list of self-contained RunSpecs (one simulation point each) plus
// a deterministic assembly step. Plan.Run executes serially; the
// internal/sweep orchestrator executes the same specs on a worker pool
// with byte-identical output.
package bench

import (
	"fmt"
	"io"
	"sort"

	"gat/internal/jacobi"
	"gat/internal/sim"
)

// Options tunes a figure generation run.
type Options struct {
	// MaxNodes caps the node-count sweep (0 = the paper's full range).
	MaxNodes int
	// Warmup and Iters override the iteration counts (0 = defaults:
	// 3 warm-up, 10 timed).
	Warmup, Iters int
	// Jitter, when positive, perturbs each network transfer's latency
	// by up to this fraction, seeded per run from the RunSpec seed.
	// Zero (the default) keeps the cost model exactly deterministic.
	Jitter float64
	// Shards is the conservative-PDES shard count for parallel-in-run
	// execution (internal/pdes); <= 1 runs serially. Scenarios that
	// support it (Cell.Shards) produce byte-identical output at any
	// value, so Shards is a runtime knob, not a result parameter — it
	// deliberately stays out of RunSpec and the run fingerprint.
	Shards int
	// Verbose, if non-nil, receives progress lines.
	Verbose io.Writer

	// memo, when set (WithMemo), is shared by every cell planned with
	// these options.
	memo *memo
}

func (o Options) progress(format string, args ...any) {
	if o.Verbose != nil {
		fmt.Fprintf(o.Verbose, format+"\n", args...)
	}
}

// Point is one measured value in a series.
type Point struct {
	// Nodes is the x coordinate.
	Nodes int
	// Value is the y value: time per iteration for the timing figures,
	// a dimensionless ratio for the speedup figures.
	Value float64
	// Meta annotates the point (e.g. the best ODF chosen).
	Meta string
	// MaxLinkUtil and MeanLinkUtil carry the run's fabric-link
	// congestion summary (app.Metrics) into per-run provenance: the
	// gat-sweep-v3 report, the run store, and the -v/-explain displays.
	// They never enter rendered tables or CSV, so figure bytes are
	// unchanged; zero on NIC-only machines.
	MaxLinkUtil, MeanLinkUtil float64
	// Routing names the routing policy the run's fabric used
	// ("minimal", "valiant", "adaptive"; empty on NIC-only machines).
	// Like the utilization fields it is provenance only — the
	// gat-sweep-v3 report and the run store carry it, rendered tables
	// and CSV never do.
	Routing string
}

// Series is one line of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Figure is one reproduced figure.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// nodeSweep returns the geometric node-count range [lo..hi] capped by
// opt.MaxNodes. A cap below lo still yields the single point lo, so a
// figure never comes back empty.
func nodeSweep(lo, hi int, opt Options) []int {
	var out []int
	for n := lo; n <= hi; n *= 2 {
		if opt.MaxNodes > 0 && n > opt.MaxNodes && len(out) > 0 {
			break
		}
		out = append(out, n)
		if opt.MaxNodes > 0 && n > opt.MaxNodes {
			break
		}
	}
	return out
}

// weakGlobal grows the base per-node grid with the node count,
// matching §IV-B (now shared with the app layer as jacobi.WeakGlobal).
func weakGlobal(base [3]int, nodes int) [3]int {
	return jacobi.WeakGlobal(base, nodes)
}

// odfCandidates returns the ODF search set, trimmed at large node
// counts where high ODFs are both slow to simulate and never optimal
// (§IV-C shows the best ODF falls as scale rises).
func odfCandidates(nodes int) []int {
	switch {
	case nodes <= 16:
		return []int{1, 2, 4, 8, 16}
	case nodes <= 64:
		return []int{1, 2, 4, 8}
	default:
		return []int{1, 2, 4}
	}
}

// ms converts simulated time to milliseconds for figure values.
func ms(t sim.Time) float64 { return t.Millis() }

// us converts simulated time to microseconds for figure values.
func us(t sim.Time) float64 { return t.Micros() }

// WriteTable renders the figure as an aligned text table.
func (f Figure) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "# %s — %s\n", f.ID, f.Title)
	fmt.Fprintf(w, "# y: %s\n", f.YLabel)
	xs := f.xValues()
	fmt.Fprintf(w, "%-8s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(w, "%16s", s.Name)
	}
	fmt.Fprintln(w)
	for _, x := range xs {
		fmt.Fprintf(w, "%-8d", x)
		for _, s := range f.Series {
			if p, ok := s.at(x); ok {
				cell := fmt.Sprintf("%.3f", p.Value)
				if p.Meta != "" {
					cell += " (" + p.Meta + ")"
				}
				fmt.Fprintf(w, "%16s", cell)
			} else {
				fmt.Fprintf(w, "%16s", "-")
			}
		}
		fmt.Fprintln(w)
	}
}

// WriteCSV renders the figure as CSV rows (figure,series,nodes,value,meta).
func (f Figure) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "figure,series,nodes,value,meta"); err != nil {
		return err
	}
	for _, s := range f.Series {
		for _, p := range s.Points {
			if _, err := fmt.Fprintf(w, "%s,%s,%d,%g,%s\n", f.ID, s.Name, p.Nodes, p.Value, p.Meta); err != nil {
				return err
			}
		}
	}
	return nil
}

func (f Figure) xValues() []int {
	seen := map[int]bool{}
	var xs []int
	for _, s := range f.Series {
		for _, p := range s.Points {
			if !seen[p.Nodes] {
				seen[p.Nodes] = true
				xs = append(xs, p.Nodes)
			}
		}
	}
	sort.Ints(xs)
	return xs
}

func (s Series) at(x int) (Point, bool) {
	for _, p := range s.Points {
		if p.Nodes == x {
			return p, true
		}
	}
	return Point{}, false
}
