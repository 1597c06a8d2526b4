// Package sweepd implements the sweep-as-a-service HTTP layer: a
// shared content-addressed run store plus a streaming sweep registry,
// so many machines drain one run-list against one global memo table
// and observers watch results land cell by cell instead of polling
// for a finished report.
//
// Two halves, one handler:
//
//   - The store half exposes the on-disk cache (internal/sweep/store)
//     over GET/PUT /v1/entry/<key>. Entries are content-addressed, so
//     PUTs are idempotent and racing workers conflict-free; writes are
//     atomic and corrupt entries read as misses and are healed by the
//     next PUT — exactly the local store's semantics, now shared.
//   - The watch half is the list-watch idiom: workers POST per-run
//     completions (gat-sweep-v3 ReportRun records) into a named sweep,
//     and GET /v1/watch/<sweep-id> streams one JSON line per run —
//     first a replay of everything already registered (the "list"),
//     then live lines as cells complete (the "watch"), until the
//     client disconnects.
//
// Endpoints:
//
//	GET  /healthz                  liveness + entry count
//	GET  /v1/entry/{key}           one cache entry (404 = miss)
//	PUT  /v1/entry/{key}           file an entry (idempotent; 403 read-only)
//	POST /v1/sweep/{id}/run        register one completed run (v3 record)
//	POST /v1/sweep/{id}/report     register every run of a v3 report
//	GET  /v1/sweep/{id}            snapshot of registered runs (the list)
//	GET  /v1/watch/{id}            NDJSON stream: replay, then live runs
//
// Authentication is a single shared bearer token (WithToken / the
// daemon's -token flag): when set, every endpoint except GET /healthz
// requires "Authorization: Bearer <token>" and answers 401 otherwise.
// That is deliberately coarse — one credential for the whole fleet,
// no TLS, no tenant separation — enough to keep a sweepd on a lab
// network from accepting writes from strangers, not a substitute for
// network isolation. Run it where you would run a shared NFS cache
// mount. It is presentation/transport code, not simulation code — it
// lives outside the gatvet wallclock scope and may read the host
// clock freely (timeouts, log timestamps); determinism is owed by the
// entries that pass through it, which carry their own fingerprints.
package sweepd

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"gat/internal/sweep"
	"gat/internal/sweep/store"
)

// maxBodyBytes bounds every request body sweepd decodes. Entries and
// run records are a few hundred bytes; whole reports a few hundred KB.
const maxBodyBytes = 8 << 20

// Server is the sweepd HTTP handler: a store front end plus the sweep
// registry. Create with New, mount via http.Server or httptest.
type Server struct {
	st    *store.Store
	logf  func(format string, args ...any)
	token string

	mu     sync.Mutex
	sweeps map[string]*sweepState

	mux *http.ServeMux
}

// Option configures a Server beyond its required store and logger.
type Option func(*Server)

// WithToken requires "Authorization: Bearer <token>" on every endpoint
// except GET /healthz (so load-balancer liveness probes stay
// credential-free). An empty token keeps the server open, matching the
// pre-auth behaviour.
func WithToken(token string) Option { return func(s *Server) { s.token = token } }

// sweepState is one named sweep's registered run lines, append-only,
// with a cond watchers wait on. Lines are stored re-marshaled
// (compact, known-good JSON), so the watch stream never relays a
// client's raw bytes.
type sweepState struct {
	mu   sync.Mutex
	cond *sync.Cond
	runs [][]byte
}

func newSweepState() *sweepState {
	ss := &sweepState{}
	ss.cond = sync.NewCond(&ss.mu)
	return ss
}

// New builds a Server over an open store (read-write or read-only —
// in the latter case every PUT answers 403 and the service is a pure
// lookup + watch tier). logf receives one line per mutating or
// anomalous request; pass nil to discard.
func New(st *store.Store, logf func(format string, args ...any), opts ...Option) *Server {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s := &Server{
		st:     st,
		logf:   logf,
		sweeps: map[string]*sweepState{},
		mux:    http.NewServeMux(),
	}
	for _, opt := range opts {
		opt(s)
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/entry/{key}", s.handleEntryGet)
	s.mux.HandleFunc("PUT /v1/entry/{key}", s.handleEntryPut)
	s.mux.HandleFunc("POST /v1/sweep/{id}/run", s.handleRunPost)
	s.mux.HandleFunc("POST /v1/sweep/{id}/report", s.handleReportPost)
	s.mux.HandleFunc("GET /v1/sweep/{id}", s.handleSweepGet)
	s.mux.HandleFunc("GET /v1/watch/{id}", s.handleWatch)
	return s
}

// ServeHTTP checks the bearer token (when configured), then dispatches
// to the v1 routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !s.authorized(r) {
		// The WWW-Authenticate challenge names the scheme, never the
		// expected credential.
		w.Header().Set("WWW-Authenticate", `Bearer realm="sweepd"`)
		clientError(w, http.StatusUnauthorized, "this sweepd requires Authorization: Bearer <token>")
		return
	}
	s.mux.ServeHTTP(w, r)
}

// authorized implements the bearer check. /healthz stays open so
// probes and humans can tell "down" from "locked out"; it exposes only
// liveness and an entry count. The comparison is constant-time — the
// token is a shared secret, and an equality that bails on the first
// wrong byte leaks its prefix to a timing probe.
func (s *Server) authorized(r *http.Request) bool {
	if s.token == "" || r.URL.Path == "/healthz" {
		return true
	}
	got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	if !ok {
		return false
	}
	return subtle.ConstantTimeCompare([]byte(got), []byte(s.token)) == 1
}

// sweep returns (creating if needed) the named sweep's state. Watching
// a sweep nobody has published to yet is legal — that is the normal
// order for an observer attached before the workers start.
func (s *Server) sweep(id string) *sweepState {
	s.mu.Lock()
	defer s.mu.Unlock()
	ss, ok := s.sweeps[id]
	if !ok {
		ss = newSweepState()
		s.sweeps[id] = ss
	}
	return ss
}

// publish appends validated, re-marshaled run lines and wakes every
// watcher.
func (ss *sweepState) publish(lines ...[]byte) {
	ss.mu.Lock()
	ss.runs = append(ss.runs, lines...)
	ss.mu.Unlock()
	ss.cond.Broadcast()
}

// clientError answers a 4xx with a one-line plain-text reason — the
// "friendly 400" contract: a foreign payload gets told what the
// endpoint wanted, not handed a decoder trace.
func clientError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	n, err := s.st.Len()
	if err != nil {
		n = -1 // still alive; the count is advisory
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"ok\":true,\"entries\":%d,\"read_only\":%v}\n", n, s.st.ReadOnly())
}

func (s *Server) handleEntryGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !store.ValidKey(key) {
		clientError(w, http.StatusBadRequest, "malformed key %q: want 32 lowercase hex characters (a run fingerprint)", key)
		return
	}
	e, ok, err := s.st.Get(key)
	if err != nil {
		// Corrupt-entry healing semantics, inherited: a rotten file is
		// a miss, logged server-side; the worker re-simulates and its
		// PUT replaces the slot.
		s.logf("entry %s: discarding corrupt entry: %v", key, err)
		clientError(w, http.StatusNotFound, "no entry for %s (corrupt slot discarded; a fresh PUT heals it)", key)
		return
	}
	if !ok {
		clientError(w, http.StatusNotFound, "no entry for %s", key)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(&e)
}

func (s *Server) handleEntryPut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !store.ValidKey(key) {
		clientError(w, http.StatusBadRequest, "malformed key %q: want 32 lowercase hex characters (a run fingerprint)", key)
		return
	}
	var e store.Entry
	if err := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes)).Decode(&e); err != nil {
		clientError(w, http.StatusBadRequest, "body is not a %s entry: %v", store.Schema, err)
		return
	}
	if e.Schema != store.Schema {
		clientError(w, http.StatusBadRequest, "entry schema %q not accepted: this server stores %s entries", e.Schema, store.Schema)
		return
	}
	if e.Key != key {
		clientError(w, http.StatusBadRequest, "entry claims key %s but was PUT under %s", e.Key, key)
		return
	}
	if err := s.st.Put(e); err != nil {
		if errors.Is(err, store.ErrReadOnly) {
			clientError(w, http.StatusForbidden, "this sweepd serves a read-only store; PUT is disabled")
			return
		}
		s.logf("entry %s: put failed: %v", key, err)
		http.Error(w, "storing entry failed", http.StatusInternalServerError)
		return
	}
	s.logf("entry %s: stored (%s/%s x=%d)", key, e.Figure, e.Series, e.X)
	w.WriteHeader(http.StatusNoContent)
}

// decodeRun validates one gat-sweep-v3 run record and returns its
// compact re-marshaling. The friendly-400 contract: the error names
// what a valid record looks like.
func decodeRun(body io.Reader) ([]byte, error) {
	var rec sweep.ReportRun
	if err := json.NewDecoder(io.LimitReader(body, maxBodyBytes)).Decode(&rec); err != nil {
		return nil, fmt.Errorf("body is not a %s run record: %v", sweep.SchemaV3, err)
	}
	return marshalRun(rec)
}

func marshalRun(rec sweep.ReportRun) ([]byte, error) {
	if rec.Figure == "" || rec.Series == "" {
		return nil, fmt.Errorf("run record is missing figure/series coordinates: want the per-run object of a %s report", sweep.SchemaV3)
	}
	line, err := json.Marshal(&rec)
	if err != nil {
		return nil, fmt.Errorf("re-encoding run record: %v", err)
	}
	return line, nil
}

func (s *Server) handleRunPost(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	line, err := decodeRun(r.Body)
	if err != nil {
		clientError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.sweep(id).publish(line)
	s.logf("sweep %s: +1 run", id)
	w.WriteHeader(http.StatusAccepted)
}

func (s *Server) handleReportPost(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rep, err := sweep.ReadJSON(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		if errors.Is(err, sweep.ErrUnknownSchema) {
			// A well-formed document under a foreign tag: say which
			// schemas exist rather than dumping a decode error.
			clientError(w, http.StatusBadRequest, "%v", err)
			return
		}
		clientError(w, http.StatusBadRequest, "body is not a gat-sweep report: %v", err)
		return
	}
	// Validate every run before publishing any: a refused report leaves
	// the sweep and its watchers untouched.
	var lines [][]byte
	for _, f := range rep.Figures {
		for _, rec := range f.Runs {
			line, err := marshalRun(rec)
			if err != nil {
				clientError(w, http.StatusBadRequest, "run %d: %v", len(lines), err)
				return
			}
			lines = append(lines, line)
		}
	}
	s.sweep(id).publish(lines...)
	s.logf("sweep %s: +%d runs from a published report", id, len(lines))
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"published\":%d}\n", len(lines))
}

func (s *Server) handleSweepGet(w http.ResponseWriter, r *http.Request) {
	ss := s.sweep(r.PathValue("id"))
	ss.mu.Lock()
	lines := ss.runs[:len(ss.runs):len(ss.runs)] // append-only: the snapshot is immutable
	ss.mu.Unlock()
	id, _ := json.Marshal(r.PathValue("id")) // a string always marshals
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"sweep\":%s,\"runs\":[", id)
	for i, line := range lines {
		if i > 0 {
			w.Write([]byte(","))
		}
		w.Write(line)
	}
	fmt.Fprintf(w, "]}\n")
}

// handleWatch is the streaming half of the list-watch idiom: replay
// every run already registered, then block and relay new ones as they
// land, one compact JSON object per line, flushed per batch, until the
// client goes away. A watcher can attach before the sweep starts.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ss := s.sweep(id)
	fl, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	if canFlush {
		fl.Flush() // commit headers so the client sees the stream open
	}
	s.logf("sweep %s: watcher attached", id)

	ctx := r.Context()
	// A watcher parked in cond.Wait must wake when its client hangs
	// up, or the goroutine leaks until the next publish.
	stop := context.AfterFunc(ctx, ss.cond.Broadcast)
	defer stop()

	next := 0
	for {
		ss.mu.Lock()
		for next >= len(ss.runs) && ctx.Err() == nil {
			ss.cond.Wait()
		}
		batch := ss.runs[next:len(ss.runs):len(ss.runs)]
		next = len(ss.runs)
		ss.mu.Unlock()

		if ctx.Err() != nil {
			s.logf("sweep %s: watcher detached", id)
			return
		}
		for _, line := range batch {
			// Two writes, not append(line, '\n'): the stored line's
			// backing array is shared with every other watcher.
			if _, err := w.Write(line); err != nil {
				s.logf("sweep %s: watcher write failed: %v", id, err)
				return
			}
			if _, err := io.WriteString(w, "\n"); err != nil {
				s.logf("sweep %s: watcher write failed: %v", id, err)
				return
			}
		}
		if canFlush {
			fl.Flush()
		}
	}
}
