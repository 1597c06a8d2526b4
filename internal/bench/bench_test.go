package bench

import (
	"slices"
	"strings"
	"testing"

	"gat/internal/app"
)

// quickOpt keeps scenario tests fast: tiny sweeps, few iterations.
func quickOpt() Options {
	return Options{MaxNodes: 2, Warmup: 1, Iters: 3}
}

// generate plans scenario id and runs its specs serially, in spec
// order, with no memo.
func generate(id string, opt Options, ov Overrides) (Figure, error) {
	p, err := PlanScenario(id, opt, ov)
	if err != nil {
		return Figure{}, err
	}
	pts := make([]Point, len(p.Specs))
	for i, s := range p.Specs {
		pts[i] = s.Execute()
	}
	return p.Assemble(pts), nil
}

// generateKind runs every registered scenario of kind k serially.
func generateKind(t *testing.T, k Kind) []Figure {
	t.Helper()
	var figs []Figure
	for _, s := range Scenarios() {
		if s.Kind != k {
			continue
		}
		fig, err := generate(s.Name, quickOpt(), Overrides{})
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		figs = append(figs, fig)
	}
	if len(figs) == 0 {
		t.Fatalf("no %s scenarios registered", k)
	}
	return figs
}

func TestAllGeneratorsProduceSeries(t *testing.T) {
	for _, fig := range generateKind(t, KindFigure) {
		if len(fig.Series) == 0 {
			t.Errorf("%s: no series", fig.ID)
		}
		for _, s := range fig.Series {
			if len(s.Points) == 0 {
				t.Errorf("%s/%s: no points", fig.ID, s.Name)
			}
			for _, p := range s.Points {
				if p.Value <= 0 {
					t.Errorf("%s/%s: non-positive value at %d", fig.ID, s.Name, p.Nodes)
				}
			}
		}
	}
}

func TestAblationGenerators(t *testing.T) {
	for _, fig := range generateKind(t, KindAblation) {
		if len(fig.Series) != 2 {
			t.Errorf("%s: want 2 series, got %d", fig.ID, len(fig.Series))
		}
	}
}

func TestGenerateUnknownID(t *testing.T) {
	if _, err := PlanScenario("nope", quickOpt(), Overrides{}); err == nil {
		t.Fatal("unknown id should error via PlanScenario")
	}
}

func TestGenerateByID(t *testing.T) {
	fig, err := generate("fig7b", quickOpt(), Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "fig7b" || len(fig.Series) != 4 {
		t.Fatalf("fig7b should have 4 variant series, got %q with %d", fig.ID, len(fig.Series))
	}
}

func TestWeakGlobalGrowth(t *testing.T) {
	base := [3]int{100, 100, 100}
	cases := []struct {
		nodes int
		want  [3]int
	}{
		{1, [3]int{100, 100, 100}},
		{2, [3]int{100, 100, 200}},
		{4, [3]int{100, 200, 200}},
		{8, [3]int{200, 200, 200}},
		{64, [3]int{400, 400, 400}},
	}
	for _, c := range cases {
		if got := weakGlobal(base, c.nodes); got != c.want {
			t.Errorf("weakGlobal(%d) = %v, want %v", c.nodes, got, c.want)
		}
	}
}

func TestWeakScalingMatchesStrongAtEight(t *testing.T) {
	// §IV-C: the 3072^3 strong-scaling grid equals the weak-scaling
	// global grid at 8 nodes.
	if got := weakGlobal(weakBaseLarge, 8); got != strongGlobal {
		t.Fatalf("weakGlobal(1536^3, 8) = %v, want %v", got, strongGlobal)
	}
}

func TestNodeSweepCap(t *testing.T) {
	got := nodeSweep(1, 512, Options{MaxNodes: 8})
	want := []int{1, 2, 4, 8}
	if len(got) != len(want) {
		t.Fatalf("sweep = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sweep = %v, want %v", got, want)
		}
	}
}

func TestODFCandidatesShrinkWithScale(t *testing.T) {
	if len(odfCandidates(8)) <= len(odfCandidates(512)) {
		t.Fatal("ODF search set should shrink at large node counts")
	}
}

func TestTableAndCSVOutput(t *testing.T) {
	fig, err := generate("fig7b", quickOpt(), Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	var tbl strings.Builder
	fig.WriteTable(&tbl)
	for _, want := range []string{"fig7b", "MPI-H", "Charm-D", "nodes"} {
		if !strings.Contains(tbl.String(), want) {
			t.Fatalf("table missing %q:\n%s", want, tbl.String())
		}
	}
	var csv strings.Builder
	if err := fig.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "figure,series,nodes,value,meta") {
		t.Fatal("CSV header missing")
	}
	lines := strings.Count(csv.String(), "\n")
	if lines < 5 {
		t.Fatalf("CSV too short: %d lines", lines)
	}
}

func TestBestODFPicksMinimum(t *testing.T) {
	c := claimCell(quickOpt(), "test", 1)
	global := [3]int{192, 192, 192}
	candidates := []int{1, 2, 4}
	best, odf := bestODFRun(c, "charm-d", global, candidates)
	for _, cand := range candidates {
		if r := c.Run("charm-d", app.Params{Global: global, ODF: cand}); r.TimePerIter < best.TimePerIter {
			t.Fatalf("bestODFRun chose ODF %d (%v), but ODF %d runs faster (%v)",
				odf, best.TimePerIter, cand, r.TimePerIter)
		}
	}
	if !slices.Contains(candidates, odf) {
		t.Fatalf("bestODFRun returned ODF %d outside candidates", odf)
	}
	// Re-running the winning ODF must reproduce its time (determinism
	// of the selection).
	again, odf2 := bestODFRun(c, "charm-d", global, []int{odf})
	if odf2 != odf || again.TimePerIter != best.TimePerIter {
		t.Fatalf("bestODFRun not reproducible: %v/%d vs %v/%d",
			best.TimePerIter, odf, again.TimePerIter, odf2)
	}
}
