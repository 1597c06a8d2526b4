package bench

import (
	"strings"
	"testing"
)

// TestClaimsAtReducedScale is the integration gate: every qualitative
// claim of the paper must hold on the simulator at CI-friendly scale.
// cmd/claims runs the same checks at full scale.
func TestClaimsAtReducedScale(t *testing.T) {
	if testing.Short() {
		t.Skip("claims take ~10s")
	}
	var sb strings.Builder
	opt := Options{MaxNodes: 16, Iters: 5, Warmup: 2}
	if !CheckClaims(opt, &sb) {
		t.Fatalf("claims failed:\n%s", sb.String())
	}
	for _, id := range []string{"C1", "C2", "C3", "C4", "C5", "C6", "C7"} {
		if !strings.Contains(sb.String(), id+"   PASS") {
			t.Fatalf("claim %s missing or failed:\n%s", id, sb.String())
		}
	}
}

func TestClaimListComplete(t *testing.T) {
	cs := Claims()
	if len(cs) != 7 {
		t.Fatalf("want 7 claims, got %d", len(cs))
	}
	seen := map[string]bool{}
	for _, c := range cs {
		if c.ID == "" || c.Text == "" || c.Run == nil {
			t.Fatalf("incomplete claim %+v", c)
		}
		if seen[c.ID] {
			t.Fatalf("duplicate claim id %s", c.ID)
		}
		seen[c.ID] = true
	}
}

func TestScaleNodes(t *testing.T) {
	if n := scaleNodes(512, Options{MaxNodes: 64}); n != 64 {
		t.Fatalf("scaleNodes = %d, want 64", n)
	}
	if n := scaleNodes(512, Options{}); n != 512 {
		t.Fatalf("uncapped scaleNodes = %d, want 512", n)
	}
	if n := scaleNodes(8, Options{MaxNodes: 3}); n != 2 {
		t.Fatalf("scaleNodes = %d, want 2", n)
	}
}
