package bench

import (
	"os"
	"path/filepath"
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

// TestClaimsGolden pins every claim's verdict and detail numbers at
// reduced scale, byte for byte, so a change to how the claims measure
// (their cells, search sets or shared memo) cannot move a number
// unseen. Regenerate (only after an intentional cost-model change) by
// writing CheckClaims(Options{MaxNodes: 4, Iters: 2}) to
// testdata/golden_claims_n4i2.txt.
func TestClaimsGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden_claims_n4i2.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	CheckClaims(Options{MaxNodes: 4, Iters: 2}, &got)
	if got.String() != string(want) {
		t.Fatalf("claims report differs from the golden:\n--- got ---\n%s--- want ---\n%s", got.String(), want)
	}
}
