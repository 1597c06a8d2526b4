// Package store is the content-addressed run cache behind incremental
// sweeps: a directory of immutable per-key JSON entries, one per
// executed RunSpec, addressed by the spec's fingerprint
// (bench.RunSpec.Fingerprint). Because the fingerprint covers every
// input that determines a run's simulated result — the one model salt
// (sim.EngineVersion), the scenario, app and machine names, the
// experiment coordinates, seed and jitter — a hit can be served
// without simulating. Every model change bumps the salt, so it changes
// every key, orphaning (not poisoning) old entries.
//
// Layout: <dir>/<key[:2]>/<key>.json, sharded on the first hash byte
// so a full-figure cache doesn't pile thousands of files into one
// directory. Entries are written atomically (temp file + rename), so
// concurrent sweep workers and interrupted runs leave either a whole
// entry or none. Corrupt or foreign files read as misses, never as
// errors that abort a sweep: the run is simply re-simulated and the
// entry rewritten.
//
// The unit of exchange is the whole Entry — the schema tag and the
// run's Record: value, provenance coordinates and the original
// simulation's wall cost — so any cache backend that moves Entries (the
// disk store here, the sweepd HTTP service, an in-memory fake)
// round-trips wall_ns provenance without knowing what it means. Build
// entries with NewEntry, which validates the invariants Put relies on.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"gat/internal/bench"
)

// Schema is the cache-entry schema tag. Bump only when the entry file
// format itself changes; result invalidation is the fingerprint's job.
const Schema = "gat-cache-v1"

// ErrReadOnly marks a Put refused by a store opened with OpenReadOnly
// (a worker on a shared read-only mount, sweepd's -read-only serving
// mode). Callers that treat cache errors as non-fatal lose only the
// memo; errors.Is(err, ErrReadOnly) identifies the cause.
var ErrReadOnly = errors.New("store is read-only")

// Record is one run's result with the coordinates that produced it:
// the key it is filed under, the spec's scenario (as figure), app,
// machine and experiment cell, the resulting figure point, and the
// host cost of the simulation that produced it. A cache entry, a sweep
// report's run record, a sweepd watch line and a -resume lookup all
// carry one; the coordinates are for humans and audits — lookups trust
// only the key. RecordOf is its only builder and Point the only way
// back to a figure point.
type Record struct {
	Key string `json:"key"`

	// Provenance: where the point came from.
	Figure  string  `json:"figure"`
	App     string  `json:"app,omitempty"`
	Machine string  `json:"machine,omitempty"`
	Series  string  `json:"series"`
	X       int     `json:"x"`
	Nodes   int     `json:"nodes"`
	Warmup  int     `json:"warmup"`
	Iters   int     `json:"iters"`
	Seed    uint64  `json:"seed"`
	Jitter  float64 `json:"jitter,omitempty"`

	// The result, including the run's fabric-link congestion summary
	// and route-choice policy (zero/absent on NIC-only machines).
	Value        float64 `json:"value"`
	Meta         string  `json:"meta,omitempty"`
	MaxLinkUtil  float64 `json:"max_link_util,omitempty"`
	MeanLinkUtil float64 `json:"mean_link_util,omitempty"`
	Routing      string  `json:"routing,omitempty"`

	// WallNS is the host cost of the original simulation — what a hit
	// or a resumed run saved, not what the lookup cost. Metadata only.
	WallNS int64 `json:"wall_ns"`
}

// RecordOf builds the record of one executed spec filed under key.
func RecordOf(key string, spec bench.RunSpec, pt bench.Point, wallNS int64) Record {
	return Record{
		Key:          key,
		Figure:       spec.Scenario,
		App:          spec.App,
		Machine:      spec.Machine,
		Series:       spec.Series,
		X:            spec.X,
		Nodes:        spec.Nodes,
		Warmup:       spec.Warmup,
		Iters:        spec.Iters,
		Seed:         spec.Seed,
		Jitter:       spec.Jitter,
		Value:        pt.Value,
		Meta:         pt.Meta,
		MaxLinkUtil:  pt.MaxLinkUtil,
		MeanLinkUtil: pt.MeanLinkUtil,
		Routing:      pt.Routing,
		WallNS:       wallNS,
	}
}

// Point reconstructs the figure point the record carries.
func (r Record) Point() bench.Point {
	return bench.Point{
		Nodes: r.X, Value: r.Value, Meta: r.Meta,
		MaxLinkUtil: r.MaxLinkUtil, MeanLinkUtil: r.MeanLinkUtil,
		Routing: r.Routing,
	}
}

// Entry is one cached run: its record under the cache schema tag.
type Entry struct {
	Schema string `json:"schema"`
	Record
}

// NewEntry builds the cache entry for one executed spec, validating
// the invariants every backend's Put relies on: the key is a
// well-formed fingerprint and the point's x coordinate round-trips
// (Record.Point rebuilds it from X, so a spec whose point disagrees
// with its own x cell would corrupt reassembly on the next hit).
func NewEntry(key string, spec bench.RunSpec, pt bench.Point, wallNS int64) (Entry, error) {
	if !ValidKey(key) {
		return Entry{}, fmt.Errorf("store: malformed key %q for spec %s", key, spec.Name())
	}
	if pt.Nodes != spec.X {
		return Entry{}, fmt.Errorf("store: spec %s produced a point at x=%d; refusing to cache", spec.Name(), pt.Nodes)
	}
	return Entry{Schema: Schema, Record: RecordOf(key, spec, pt, wallNS)}, nil
}

// Validate checks the entry's self-description: the schema tag this
// package writes and a well-formed key. It is the shared gate for
// every ingest path — the disk store's Put, sweepd's PUT handler, the
// remote client decoding a server response — so a foreign or damaged
// entry is refused identically everywhere.
func (e Entry) Validate() error {
	if e.Schema != Schema {
		return fmt.Errorf("store: entry has schema %q, want %q", e.Schema, Schema)
	}
	if !ValidKey(e.Key) {
		return fmt.Errorf("store: entry has malformed key %q", e.Key)
	}
	return nil
}

// ValidKey reports whether key has the shape of a run fingerprint: 32
// lowercase hex characters (bench.RunSpec.Fingerprint). Everything
// that builds a file path or URL from an externally supplied key
// checks this first, so a hostile key ("../../etc/passwd") can never
// escape the cache directory.
func ValidKey(key string) bool {
	if len(key) != 32 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Store is an open cache directory.
type Store struct {
	dir      string
	readOnly bool
}

// Open prepares dir as a run cache, creating it if needed and probing
// that it is writable, so a sweep fails up front — not after an hour
// of simulation — when the cache can't persist results. Consumers
// that only ever Get (a worker on a shared read-only mount) should use
// OpenReadOnly instead: the probe would wrongly reject their mount.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: cannot create cache directory: %w", err)
	}
	probe, err := os.CreateTemp(dir, ".probe-*")
	if err != nil {
		return nil, fmt.Errorf("store: cache directory %s is not writable: %w", dir, err)
	}
	probe.Close()
	os.Remove(probe.Name())
	return &Store{dir: dir}, nil
}

// OpenReadOnly opens an existing cache directory for lookups only: no
// writability probe, no directory creation, and every Put returns an
// error satisfying errors.Is(err, ErrReadOnly). This is the mode for
// consumers of a shared read-only mount and for sweepd's -read-only
// serving. The directory must already exist — a missing path is
// almost always a typo, and a read-only consumer cannot create it
// anyway.
func OpenReadOnly(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty cache directory")
	}
	info, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("store: read-only cache directory: %w", err)
	}
	if !info.IsDir() {
		return nil, fmt.Errorf("store: read-only cache path %s is not a directory", dir)
	}
	return &Store{dir: dir, readOnly: true}, nil
}

// Dir returns the cache directory.
func (s *Store) Dir() string { return s.dir }

// ReadOnly reports whether the store was opened with OpenReadOnly.
func (s *Store) ReadOnly() bool { return s.readOnly }

// Path returns the entry file for a key (which need not exist).
func (s *Store) Path(key string) string {
	shard := key
	if len(shard) > 2 {
		shard = shard[:2]
	}
	return filepath.Join(s.dir, shard, key+".json")
}

// Get looks a key up and returns the whole entry (the point via
// Record.Point, plus provenance like the original simulation's WallNS).
// ok reports a usable hit; a missing entry returns (zero, false, nil)
// and a corrupt one (unparseable JSON, wrong schema, key mismatch from
// a renamed file) returns (zero, false, err) so the caller can log the
// discard — both are misses, and Put later heals the slot.
func (s *Store) Get(key string) (Entry, bool, error) {
	if !ValidKey(key) {
		return Entry{}, false, fmt.Errorf("store: malformed key %q", key)
	}
	data, err := os.ReadFile(s.Path(key))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return Entry{}, false, nil
		}
		return Entry{}, false, fmt.Errorf("store: reading %s: %w", key, err)
	}
	var e Entry
	if err := json.Unmarshal(data, &e); err != nil {
		return Entry{}, false, fmt.Errorf("store: corrupt entry %s: %w", key, err)
	}
	if e.Schema != Schema {
		return Entry{}, false, fmt.Errorf("store: entry %s has schema %q, want %q", key, e.Schema, Schema)
	}
	if e.Key != key {
		return Entry{}, false, fmt.Errorf("store: entry filed under %s claims key %s", key, e.Key)
	}
	return e, true, nil
}

// Put files an entry under its own key, atomically: the entry is
// complete on disk before it becomes visible, and a re-put of the same
// key (a healed corrupt slot, a racing worker with the identical
// result) simply replaces it — entries are content-addressed, so
// concurrent writers of the same key are writing the same result and
// last-rename-wins is conflict-free. Build entries with NewEntry;
// foreign ones are gated by Entry.Validate.
func (s *Store) Put(e Entry) error {
	if err := e.Validate(); err != nil {
		return err
	}
	if s.readOnly {
		return fmt.Errorf("store: put %s: %w", e.Key, ErrReadOnly)
	}
	path := s.Path(e.Key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	data, err := json.MarshalIndent(&e, "", "  ")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	data = append(data, '\n')
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+e.Key+"-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Len walks the cache and returns the number of entries, for -explain
// style diagnostics and tests. O(entries); not used on hot paths.
func (s *Store) Len() (int, error) {
	n := 0
	err := filepath.WalkDir(s.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == ".json" {
			n++
		}
		return nil
	})
	return n, err
}
