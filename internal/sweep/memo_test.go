package sweep

import (
	"bytes"
	"testing"

	"gat/internal/bench"
)

// TestSweepReusesRepeatedSimulations: Fig 9a divides graphed runs by
// the graphs-off runs Fig 8a plots. One Sweep over both answers those
// 8 of its 24 simulations (4 strategies x 2 node counts) from its memo
// and prints the same tables as two separate Sweep calls, which share
// no memo and so are the memo-free reference — at any worker count.
func TestSweepReusesRepeatedSimulations(t *testing.T) {
	opt := bench.Options{MaxNodes: 2, Iters: 1}
	var want bytes.Buffer
	for _, id := range []string{"fig8a", "fig9a"} {
		res, err := Sweep([]string{id}, Options{Workers: 1, Bench: opt})
		if err != nil {
			t.Fatal(err)
		}
		if res.Reused != 0 {
			t.Errorf("%s alone: Reused = %d, want 0", id, res.Reused)
		}
		res.WriteTables(&want)
	}
	for _, workers := range []int{1, 4} {
		res, err := Sweep([]string{"fig8a", "fig9a"}, Options{Workers: workers, Bench: opt})
		if err != nil {
			t.Fatal(err)
		}
		if workers == 1 && res.Reused != 8 {
			t.Errorf("workers=1: Reused = %d, want 8", res.Reused)
		}
		if res.Reused > 8 || res.Simulated != 16 {
			t.Errorf("workers=%d: Reused = %d, Simulated = %d; want <= 8 and 16", workers, res.Reused, res.Simulated)
		}
		var got bytes.Buffer
		res.WriteTables(&got)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("workers=%d: tables differ from separate sweeps:\n--- separate ---\n%s\n--- one sweep ---\n%s",
				workers, want.Bytes(), got.Bytes())
		}
	}
}

// TestSweepMemoKeepsStoppedRunsAsLowerBounds: fig7c's ODF search at 8
// nodes stops its ODF-16 candidates, which abl-odf then needs in full.
// One Sweep over fig7c, fig7c again and abl-odf answers the second
// search entirely from its memo (full results and lower bounds),
// simulates abl-odf's ODF-16 runs again, and prints the tables of
// three separate sweeps, at any worker count.
func TestSweepMemoKeepsStoppedRunsAsLowerBounds(t *testing.T) {
	opt := bench.Options{MaxNodes: 8, Warmup: 1, Iters: 1}
	ids := []string{"fig7c", "fig7c", "abl-odf"}
	var want bytes.Buffer
	for _, id := range ids {
		res, err := Sweep([]string{id}, Options{Workers: 1, Bench: opt})
		if err != nil {
			t.Fatal(err)
		}
		res.WriteTables(&want)
	}
	for _, workers := range []int{1, 4} {
		res, err := Sweep(ids, Options{Workers: workers, Bench: opt})
		if err != nil {
			t.Fatal(err)
		}
		// Serially the first fig7c simulates its 2 MPI runs and 10
		// candidates and stops both ODF-16s; the second is answered
		// whole (12); abl-odf reuses ODF 1–8 of both variants (8) and
		// simulates ODF-16.
		if workers == 1 && (res.Stopped != 2 || res.Reused != 20) {
			t.Errorf("workers=1: Stopped = %d, Reused = %d; want 2 and 20", res.Stopped, res.Reused)
		}
		var got bytes.Buffer
		res.WriteTables(&got)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("workers=%d: tables differ from separate sweeps:\n--- separate ---\n%s\n--- one sweep ---\n%s",
				workers, want.Bytes(), got.Bytes())
		}
	}
}
