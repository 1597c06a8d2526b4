package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"gat/internal/bench"
)

// FuzzStoreGet files arbitrary bytes under a valid key and reads them
// back. Get must not panic; a hit must be a valid entry carrying this
// package's schema and the key it was asked for, and a miss the zero
// entry. Seeds are a real entry, one as builds before Record wrote it
// (with "scenario"), and the corrupt shapes TestStoreCorruptEntryIsMiss
// covers.
func FuzzStoreGet(f *testing.F) {
	spec, key := testSpec(f)
	good, err := json.MarshalIndent(mustEntry(f, key, spec, bench.Point{Nodes: spec.X, Value: 3.5, Meta: "odf=4"}, 1), "", "  ")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte(`{
  "schema": "gat-cache-v1",
  "key": "` + key + `",
  "figure": "fig7b",
  "scenario": "fig7b",
  "app": "jacobi3d",
  "machine": "summit",
  "series": "MPI-D",
  "x": 2,
  "nodes": 2,
  "warmup": 3,
  "iters": 2,
  "seed": 9256925671185663075,
  "value": 154.459,
  "wall_ns": 1710210
}
`))
	f.Add([]byte(`{"schema":"gat-cache-v9","key":"` + key + `","x":1,"value":2}`))
	f.Add([]byte(`{"schema":"gat-cache-v1","key":"deadbeefdeadbeefdeadbeefdeadbeef","x":1,"value":2}`))
	f.Add([]byte(`null`))
	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	path := s.Path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		e, ok, err := s.Get(key)
		switch {
		case !ok && e != (Entry{}):
			t.Fatalf("a miss returned %+v", e)
		case ok && err != nil:
			t.Fatalf("a hit came with the error %v", err)
		case ok && (e.Schema != Schema || e.Key != key):
			t.Fatalf("a hit carries schema %q and key %q, want %q and %q", e.Schema, e.Key, Schema, key)
		case ok && e.Validate() != nil:
			t.Fatalf("a hit fails Validate: %v", e.Validate())
		}
	})
}
