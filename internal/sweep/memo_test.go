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
