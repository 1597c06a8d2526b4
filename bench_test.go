// Package gat's top-level benchmarks regenerate every table and figure
// of the paper's evaluation (one benchmark per figure, fig6a..fig9b,
// plus the ablations of internal/bench/ablations.go). Each benchmark
// prints the figure's rows — the same series the paper plots — so
// `go test -bench=.` is the reproduction harness.
//
// Scale knobs (environment):
//
//	GAT_MAX_NODES  cap the node sweep (default 128 here, so the whole
//	               suite fits a default `go test` timeout; the paper's
//	               full 512-node range: GAT_MAX_NODES=512 or cmd/sweep)
//	GAT_ITERS      timed iterations per run (default 5 here; 10 in
//	               cmd/sweep)
//	GAT_JOBS       concurrent simulation runs per figure (default
//	               GOMAXPROCS; 1 recovers the serial path)
package gat

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"gat/internal/bench"
	"gat/internal/sweep"
)

func envInt(name string, def int) int {
	if s := os.Getenv(name); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return def
}

func benchOptions() bench.Options {
	return bench.Options{
		MaxNodes: envInt("GAT_MAX_NODES", 128),
		Iters:    envInt("GAT_ITERS", 5),
		Warmup:   2,
	}
}

// benchFigure regenerates one figure per benchmark iteration — its
// independent runs spread over the sweep worker pool — and prints the
// figure's rows once.
func benchFigure(b *testing.B, id string) {
	b.Helper()
	opt := sweep.Options{
		Workers: envInt("GAT_JOBS", 0),
		Bench:   benchOptions(),
	}
	var printed bool
	for i := 0; i < b.N; i++ {
		res, err := sweep.Sweep([]string{id}, opt)
		if err != nil {
			b.Fatal(err)
		}
		fig := res.Figures[0].Figure
		if len(fig.Series) == 0 {
			b.Fatalf("%s: empty figure", id)
		}
		if !printed {
			printed = true
			fmt.Println()
			fig.WriteTable(os.Stdout)
		}
		// Expose the final data point of the first and last series as
		// metrics, so regressions in the headline numbers are visible
		// in benchmark diffs.
		first := fig.Series[0]
		last := fig.Series[len(fig.Series)-1]
		b.ReportMetric(first.Points[len(first.Points)-1].Value, first.Name+"@max")
		b.ReportMetric(last.Points[len(last.Points)-1].Value, last.Name+"@max")
	}
}

// BenchmarkFig6aWeakBeforeAfter reproduces Fig 6a: weak scaling of
// Charm-H (ODF-4) before vs after the §III-C optimizations.
func BenchmarkFig6aWeakBeforeAfter(b *testing.B) { benchFigure(b, "fig6a") }

// BenchmarkFig6bStrongBeforeAfter reproduces Fig 6b: the strong-scaling
// companion of Fig 6a on the 3072^3 grid.
func BenchmarkFig6bStrongBeforeAfter(b *testing.B) { benchFigure(b, "fig6b") }

// BenchmarkFig7aWeakLarge reproduces Fig 7a: weak scaling with the
// 1536^3-per-node problem across MPI-H, MPI-D, Charm-H, Charm-D.
func BenchmarkFig7aWeakLarge(b *testing.B) { benchFigure(b, "fig7a") }

// BenchmarkFig7bWeakSmall reproduces Fig 7b: weak scaling with the
// 192^3-per-node problem (microsecond regime).
func BenchmarkFig7bWeakSmall(b *testing.B) { benchFigure(b, "fig7b") }

// BenchmarkFig7cStrong reproduces Fig 7c: strong scaling of the 3072^3
// grid.
func BenchmarkFig7cStrong(b *testing.B) { benchFigure(b, "fig7c") }

// BenchmarkFig8aFusionODF1 reproduces Fig 8a: kernel fusion strategies
// on 768^3 without overdecomposition.
func BenchmarkFig8aFusionODF1(b *testing.B) { benchFigure(b, "fig8a") }

// BenchmarkFig8bFusionODF8 reproduces Fig 8b: kernel fusion at ODF-8.
func BenchmarkFig8bFusionODF8(b *testing.B) { benchFigure(b, "fig8b") }

// BenchmarkFig9aGraphsODF1 reproduces Fig 9a: CUDA-graph speedup by
// fusion strategy without overdecomposition.
func BenchmarkFig9aGraphsODF1(b *testing.B) { benchFigure(b, "fig9a") }

// BenchmarkFig9bGraphsODF8 reproduces Fig 9b: CUDA-graph speedup at
// ODF-8.
func BenchmarkFig9bGraphsODF8(b *testing.B) { benchFigure(b, "fig9b") }

// BenchmarkAblationPriorityStreams quantifies the §III-A prescription:
// high-priority streams for packing and transfers vs flat priorities.
func BenchmarkAblationPriorityStreams(b *testing.B) { benchFigure(b, "abl-priority") }

// BenchmarkAblationManualOverlap quantifies the Fig 1b manual
// interior/exterior overlap option of the MPI variant.
func BenchmarkAblationManualOverlap(b *testing.B) { benchFigure(b, "abl-overlap") }

// BenchmarkAblationChannelAPI compares Channel API and GPU Messaging
// API one-way latency across message sizes (§II-B).
func BenchmarkAblationChannelAPI(b *testing.B) { benchFigure(b, "abl-chanapi") }
