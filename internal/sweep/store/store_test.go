package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"gat/internal/bench"
)

// testSpec compiles a real plan and returns one spec plus its key, so
// the cache tests exercise the same fingerprints production uses.
func testSpec(t testing.TB) (bench.RunSpec, string) {
	t.Helper()
	p, err := bench.PlanScenario("fig6a", bench.Options{MaxNodes: 2, Warmup: 1, Iters: 2}, bench.Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	spec := p.Specs[0]
	return spec, spec.Fingerprint()
}

// mustEntry builds a valid entry for one executed spec.
func mustEntry(t testing.TB, key string, spec bench.RunSpec, pt bench.Point, wallNS int64) Entry {
	t.Helper()
	e, err := NewEntry(key, spec, pt, wallNS)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestStoreMissThenHit(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec, key := testSpec(t)

	if _, ok, err := s.Get(key); ok || err != nil {
		t.Fatalf("empty store: Get = ok=%v err=%v, want miss with nil error", ok, err)
	}

	want := bench.Point{Nodes: spec.X, Value: 1.25, Meta: "ODF-2", MaxLinkUtil: 0.42, MeanLinkUtil: 0.17, Routing: "adaptive"}
	if err := s.Put(mustEntry(t, key, spec, want, 42)); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(key)
	if err != nil || !ok {
		t.Fatalf("Get after Put: ok=%v err=%v", ok, err)
	}
	if got.Point() != want {
		t.Fatalf("round trip: got %+v, want %+v", got.Point(), want)
	}
	if got.WallNS != 42 {
		t.Fatalf("round trip lost the simulation cost: wall_ns = %d, want 42", got.WallNS)
	}

	if n, err := s.Len(); err != nil || n != 1 {
		t.Fatalf("Len = %d, %v; want 1 entry", n, err)
	}
	// The layout contract: sharded by the first key byte.
	if want := filepath.Join(s.Dir(), key[:2], key+".json"); s.Path(key) != want {
		t.Fatalf("Path = %s, want %s", s.Path(key), want)
	}
}

// TestStoreCorruptEntryIsMiss covers every way an entry can rot on
// disk: truncated JSON, a wrong schema tag, and a file renamed under a
// key it doesn't match. All must read as misses with a diagnostic
// error — never a hit, never a sweep-aborting failure — and a fresh
// Put must heal the slot.
func TestStoreCorruptEntryIsMiss(t *testing.T) {
	spec, key := testSpec(t)
	cases := []struct {
		name, content string
	}{
		{"truncated", `{"schema":"gat-cache-v1","key":"` + key[:8]},
		{"wrong-schema", `{"schema":"gat-cache-v9","key":"` + key + `","x":1,"value":2}`},
		{"key-mismatch", `{"schema":"gat-cache-v1","key":"deadbeefdeadbeefdeadbeefdeadbeef","x":1,"value":2}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			path := s.Path(key)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(c.content), 0o644); err != nil {
				t.Fatal(err)
			}
			_, ok, err := s.Get(key)
			if ok {
				t.Fatal("corrupt entry returned as a hit")
			}
			if err == nil {
				t.Fatal("corrupt entry should return a diagnostic error")
			}
			// Put heals the slot.
			if err := s.Put(mustEntry(t, key, spec, bench.Point{Nodes: spec.X, Value: 3.5}, 1)); err != nil {
				t.Fatal(err)
			}
			if got, ok, err := s.Get(key); !ok || err != nil || got.Point().Value != 3.5 {
				t.Fatalf("healed slot: got %+v ok=%v err=%v", got, ok, err)
			}
		})
	}
}

func TestStoreOpenErrors(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("Open(\"\") should error")
	}
	// A file where the directory should be.
	dir := t.TempDir()
	blocked := filepath.Join(dir, "occupied")
	if err := os.WriteFile(blocked, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(blocked); err == nil {
		t.Fatal("Open over a plain file should error")
	}
	if os.Geteuid() != 0 { // root ignores mode bits; the probe can't fail
		ro := filepath.Join(dir, "ro")
		if err := os.Mkdir(ro, 0o555); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(ro); err == nil || !strings.Contains(err.Error(), "writable") {
			t.Fatalf("Open of read-only dir: err = %v, want writability error", err)
		}
	}
}

// TestStoreOpenReadOnly: a read-only store serves hits without ever
// probing writability, refuses Put with the typed error, and refuses
// to invent a directory that a typo pointed at.
func TestStoreOpenReadOnly(t *testing.T) {
	dir := t.TempDir()
	rw, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec, key := testSpec(t)
	want := bench.Point{Nodes: spec.X, Value: 2.5}
	if err := rw.Put(mustEntry(t, key, spec, want, 7)); err != nil {
		t.Fatal(err)
	}

	ro, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !ro.ReadOnly() {
		t.Fatal("OpenReadOnly store does not report ReadOnly()")
	}
	got, ok, err := ro.Get(key)
	if !ok || err != nil || got.Point() != want {
		t.Fatalf("read-only Get: got %+v ok=%v err=%v", got, ok, err)
	}
	err = ro.Put(mustEntry(t, key, spec, want, 7))
	if !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only Put error = %v, want errors.Is(_, ErrReadOnly)", err)
	}

	if _, err := OpenReadOnly(filepath.Join(dir, "no-such-dir")); err == nil {
		t.Fatal("OpenReadOnly of a missing directory should error")
	}
	if _, err := OpenReadOnly(""); err == nil {
		t.Fatal("OpenReadOnly(\"\") should error")
	}
}

// TestStorePutRejectsInconsistentPoint guards the x round trip: a
// point whose coordinate disagrees with its spec must not be cached,
// because Entry.Point would rebuild it at the wrong x. The check
// lives in NewEntry, so every backend inherits it.
func TestStorePutRejectsInconsistentPoint(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec, key := testSpec(t)
	if _, err := NewEntry(key, spec, bench.Point{Nodes: spec.X + 7, Value: 1}, 0); err == nil {
		t.Fatal("NewEntry accepted a point at the wrong x coordinate")
	}
	if _, ok, _ := s.Get(key); ok {
		t.Fatal("rejected entry still created a slot")
	}
}

// TestStorePutRejectsForeignEntries: Put gates on Entry.Validate, so a
// wrong-schema or malformed-key entry (e.g. relayed by sweepd from a
// hostile client) can never land on disk.
func TestStorePutRejectsForeignEntries(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec, key := testSpec(t)
	good := mustEntry(t, key, spec, bench.Point{Nodes: spec.X, Value: 1}, 1)

	bad := good
	bad.Schema = "gat-cache-v9"
	if err := s.Put(bad); err == nil {
		t.Fatal("Put accepted a foreign schema")
	}
	for _, k := range []string{"", "short", "../../../../etc/passwd", strings.Repeat("Z", 32), key[:31] + "/"} {
		bad = good
		bad.Key = k
		if err := s.Put(bad); err == nil {
			t.Fatalf("Put accepted malformed key %q", k)
		}
		if _, _, err := s.Get(k); err == nil {
			t.Fatalf("Get accepted malformed key %q", k)
		}
	}
	if n, _ := s.Len(); n != 0 {
		t.Fatalf("rejected entries still landed: %d files", n)
	}
}

func TestValidKey(t *testing.T) {
	spec, key := testSpec(t)
	_ = spec
	cases := []struct {
		key  string
		want bool
	}{
		{key, true},
		{"deadbeefdeadbeefdeadbeefdeadbeef", true},
		{"0123456789abcdef0123456789abcdef", true},
		{"", false},
		{"deadbeef", false},                         // too short
		{strings.Repeat("a", 33), false},            // too long
		{"DEADBEEFDEADBEEFDEADBEEFDEADBEEF", false}, // uppercase
		{"deadbeefdeadbeefdeadbeefdeadbee/", false}, // path byte
		{"deadbeefdeadbeefdeadbeefdeadbe..", false}, // dot-dot
		{"deadbeefdeadbeefdeadbeefdeadbeeg", false}, // non-hex
	}
	for _, c := range cases {
		if got := ValidKey(c.key); got != c.want {
			t.Errorf("ValidKey(%q) = %v, want %v", c.key, got, c.want)
		}
	}
}

// TestStoreConcurrentPutSameKey races many workers finishing the
// identical fingerprint at once: every Put must succeed via the atomic
// temp+rename (last write wins), the surviving entry must be whole —
// never a torn interleaving — and no temp droppings may remain. This
// is exactly the shape a shared sweepd store sees when two machines
// complete the same cell simultaneously.
func TestStoreConcurrentPutSameKey(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec, key := testSpec(t)

	const writers = 16
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Same content-addressed result; only the host-side wall
			// cost differs between racing writers.
			e := mustEntry(t, key, spec, bench.Point{Nodes: spec.X, Value: 4.25, Meta: "racer"}, int64(1000+w))
			errs[w] = s.Put(e)
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("racing Put %d failed: %v", w, err)
		}
	}

	got, ok, err := s.Get(key)
	if !ok || err != nil {
		t.Fatalf("entry after race: ok=%v err=%v", ok, err)
	}
	if got.Point() != (bench.Point{Nodes: spec.X, Value: 4.25, Meta: "racer"}) {
		t.Fatalf("torn entry after race: %+v", got)
	}
	if got.WallNS < 1000 || got.WallNS >= 1000+writers {
		t.Fatalf("entry wall_ns %d is not one of the racing writes", got.WallNS)
	}
	// Atomic rename leaves no temp files behind.
	leftovers, err := filepath.Glob(filepath.Join(filepath.Dir(s.Path(key)), ".*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leftovers) != 0 {
		t.Fatalf("racing Puts left temp files: %v", leftovers)
	}
	if n, err := s.Len(); err != nil || n != 1 {
		t.Fatalf("Len after race = %d, %v; want exactly 1 entry", n, err)
	}
}

// TestStoreConcurrentPutDistinctKeys shakes the per-shard MkdirAll
// path: distinct keys landing in the same and different shards at
// once must all persist.
func TestStoreConcurrentPutDistinctKeys(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := testSpec(t)
	const writers = 24
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := fmt.Sprintf("%032x", w%3*16+w) // collide some shards on purpose
			e := mustEntry(t, key, spec, bench.Point{Nodes: spec.X, Value: float64(w)}, 1)
			errs[w] = s.Put(e)
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("distinct-key Put %d failed: %v", w, err)
		}
	}
}
