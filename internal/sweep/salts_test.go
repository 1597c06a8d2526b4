package sweep

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"gat/internal/sim"
)

// ledgerGoldens are the files a salt's digest covers, in the order of
// `sha256sum testdata/golden_* ../bench/testdata/golden_claims_n4i2.txt`.
var ledgerGoldens = []string{
	"testdata/golden_ablations_n2i2.txt",
	"testdata/golden_ablations_n4i2.csv",
	"testdata/golden_figs_n2i2.txt",
	"testdata/golden_figs_n4i2.csv",
	"../bench/testdata/golden_claims_n4i2.txt",
}

// goldensDigest is the SHA-256 of the sha256sum listing of
// ledgerGoldens.
func goldensDigest(t *testing.T) string {
	t.Helper()
	var list bytes.Buffer
	for _, name := range ledgerGoldens {
		b, err := os.ReadFile(filepath.FromSlash(name))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&list, "%x  %s\n", sha256.Sum256(b), name)
	}
	return fmt.Sprintf("%x", sha256.Sum256(list.Bytes()))
}

type ledgerLine struct {
	salt, digest string
	line         int
}

// readLedger parses testdata/salts.txt: "<salt> <digest>" lines, with
// blank and # lines skipped.
func readLedger(t *testing.T, path string) []ledgerLine {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []ledgerLine
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 || len(fields[1]) != 64 {
			t.Fatalf("%s:%d: want \"<salt> <sha256>\", got %q", path, n, text)
		}
		if _, err := hex.DecodeString(fields[1]); err != nil {
			t.Fatalf("%s:%d: digest %q is not hex", path, n, fields[1])
		}
		out = append(out, ledgerLine{salt: fields[0], digest: fields[1], line: n})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatalf("%s holds no salt", path)
	}
	return out
}

// nextSalt suggests the salt after s: its trailing number plus one.
func nextSalt(s string) string {
	i := len(s)
	for i > 0 && s[i-1] >= '0' && s[i-1] <= '9' {
		i--
	}
	n, err := strconv.Atoi(s[i:])
	if err != nil {
		return s + "-2"
	}
	return s[:i] + strconv.Itoa(n+1)
}

// TestSaltLedger guards the run store's one cache salt. A run is keyed
// by sim.EngineVersion, so a model change that keeps the salt would
// serve cached results of the old model. The goldens are the model's
// observable output: when they change, the salt must change, and each
// salt is recorded once, with the digest of the goldens it produced,
// in testdata/salts.txt.
func TestSaltLedger(t *testing.T) {
	const path = "testdata/salts.txt"
	ledger := readLedger(t, path)
	digest := goldensDigest(t)
	salt := sim.EngineVersion

	lineOf := map[string]int{}
	for _, l := range ledger {
		if prev, dup := lineOf[l.salt]; dup {
			t.Fatalf("%s:%d repeats the salt %q of line %d: a salt names one model", path, l.line, l.salt, prev)
		}
		lineOf[l.salt] = l.line
	}
	last := ledger[len(ledger)-1]
	switch {
	case last.salt == salt && last.digest == digest:
	case last.salt == salt:
		t.Fatalf("the goldens changed under the unchanged salt %q (%s:%d records %s, the goldens now hash to %s). "+
			"Cached runs of the old model would be served as current: bump sim.EngineVersion and append to %s:\n%s %s",
			salt, path, last.line, last.digest, digest, path, nextSalt(salt), digest)
	case lineOf[salt] != 0:
		t.Fatalf("sim.EngineVersion %q reuses the salt of %s:%d, so entries cached under that older model would be served. "+
			"Pick a salt the ledger has not used and append to %s:\n%s %s",
			salt, path, lineOf[salt], path, nextSalt(last.salt), digest)
	default:
		t.Fatalf("sim.EngineVersion is %q but %s ends at %q: append to %s:\n%s %s",
			salt, path, last.salt, path, salt, digest)
	}
}
