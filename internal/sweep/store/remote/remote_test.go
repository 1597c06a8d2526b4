package remote_test

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gat/internal/bench"
	"gat/internal/sweep"
	"gat/internal/sweep/cachetest"
	"gat/internal/sweep/store"
	"gat/internal/sweep/store/remote"
	"gat/internal/sweepd"
)

// fast returns client options tuned for tests: tiny timeouts, one
// quick retry, a hair-trigger breaker where noted.
func fast(extra ...remote.Option) []remote.Option {
	opts := []remote.Option{
		remote.WithTimeout(2 * time.Second),
		remote.WithBackoff(time.Millisecond),
	}
	return append(opts, extra...)
}

func openServer(t *testing.T) (*httptest.Server, *store.Store) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(sweepd.New(st, t.Logf))
	t.Cleanup(ts.Close)
	return ts, st
}

// TestRemoteConformance: the HTTP client passes the exact suite the
// disk store and in-memory fake pass — one sweep.Cache contract,
// three backends.
func TestRemoteConformance(t *testing.T) {
	cachetest.Conformance(t, func(t *testing.T) cachetest.Cache {
		ts, _ := openServer(t)
		c, err := remote.Open(ts.URL, fast()...)
		if err != nil {
			t.Fatal(err)
		}
		return c
	})
}

func TestOpenRejectsBadURLs(t *testing.T) {
	for _, base := range []string{"", "cachehost:8344", "ftp://x", "http://"} {
		if _, err := remote.Open(base); err == nil {
			t.Errorf("Open(%q) succeeded, want error", base)
		}
	}
}

// TestGetRetriesServerErrors: two 500s then a clean miss — the
// bounded-retry path, exercised without any sleep beyond 1ms backoff.
func TestGetRetriesServerErrors(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		http.NotFound(w, r)
	}))
	defer ts.Close()

	c, err := remote.Open(ts.URL, fast(remote.WithAttempts(3))...)
	if err != nil {
		t.Fatal(err)
	}
	_, key := cachetest.TestSpec(t)
	if _, ok, err := c.Get(key); ok || err != nil {
		t.Fatalf("Get after retries = ok=%v err=%v, want clean miss", ok, err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (2 retried + final)", got)
	}
}

// TestGetDoesNotRetryClientErrors: a 400 means the server understood
// and refused; retrying identical bytes is pointless.
func TestGetDoesNotRetryClientErrors(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "no", http.StatusBadRequest)
	}))
	defer ts.Close()

	c, err := remote.Open(ts.URL, fast(remote.WithAttempts(5))...)
	if err != nil {
		t.Fatal(err)
	}
	_, key := cachetest.TestSpec(t)
	if _, ok, err := c.Get(key); ok || err == nil {
		t.Fatalf("Get on 400 = ok=%v err=%v, want error miss", ok, err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls, want 1 (4xx never retried)", got)
	}
}

// TestGetRejectsForeignPayloads: a server handing back a wrong-key or
// wrong-schema entry is reported, and the entry is not forwarded.
func TestGetRejectsForeignPayloads(t *testing.T) {
	spec, key := cachetest.TestSpec(t)
	e, err := store.NewEntry(key, spec, bench.Point{Nodes: spec.X, Value: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	e.Key = "0123456789abcdef0123456789abcdef" // server lies about the key

	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sweepdWriteEntry(t, w, e)
	}))
	defer ts.Close()

	c, err := remote.Open(ts.URL, fast()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Get(key); ok || err == nil {
		t.Fatalf("Get with lying server = ok=%v err=%v, want error miss", ok, err)
	}
}

func sweepdWriteEntry(t *testing.T, w http.ResponseWriter, e store.Entry) {
	t.Helper()
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(&e); err != nil {
		t.Error(err)
	}
}

// TestBreakerFastFails: a server that is simply not there trips the
// breaker after WithDownAfter consecutive transport failures; later
// calls return ErrUnavailable without touching the network.
func TestBreakerFastFails(t *testing.T) {
	// Grab a port that nothing listens on: bind, then close.
	dead := httptest.NewServer(http.NotFoundHandler())
	base := dead.URL
	dead.Close()

	c, err := remote.Open(base, fast(
		remote.WithTimeout(200*time.Millisecond),
		remote.WithAttempts(1),
		remote.WithDownAfter(2),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	_, key := cachetest.TestSpec(t)

	if _, ok, err := c.Get(key); ok || err == nil {
		t.Fatal("first Get against dead server should error")
	}
	if _, ok, err := c.Get(key); ok || err == nil {
		t.Fatal("second Get against dead server should error")
	}
	if !c.Down() {
		t.Fatal("breaker should have tripped after 2 consecutive failures")
	}
	start := time.Now() //gat:nondet-ok test-only latency assertion on fast-fail path
	_, _, err = c.Get(key)
	elapsed := time.Since(start) //gat:nondet-ok test-only latency assertion on fast-fail path
	if !errors.Is(err, remote.ErrUnavailable) {
		t.Fatalf("tripped Get error = %v, want ErrUnavailable", err)
	}
	if elapsed > 50*time.Millisecond {
		t.Fatalf("tripped Get took %v, want fast-fail", elapsed)
	}
}

// TestBreakerResetOnSuccess: failures interleaved with successes never
// trip it — only consecutive failures mark a server down.
func TestBreakerResetOnSuccess(t *testing.T) {
	ts, _ := openServer(t)
	c, err := remote.Open(ts.URL, fast(remote.WithAttempts(1), remote.WithDownAfter(2))...)
	if err != nil {
		t.Fatal(err)
	}
	_, key := cachetest.TestSpec(t)
	for i := 0; i < 5; i++ {
		if _, ok, err := c.Get(key); ok || err != nil {
			t.Fatalf("Get %d = ok=%v err=%v", i, ok, err)
		}
	}
	if c.Down() {
		t.Fatal("breaker tripped on a healthy server")
	}
}

// TestPutReadOnlyMapsTo403: errors.Is(err, store.ErrReadOnly) works
// identically for a local read-only store and a read-only sweepd.
func TestPutReadOnlyMapsTo403(t *testing.T) {
	dir := t.TempDir()
	if _, err := store.Open(dir); err != nil {
		t.Fatal(err)
	}
	ro, err := store.OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(sweepd.New(ro, t.Logf))
	defer ts.Close()

	c, err := remote.Open(ts.URL, fast()...)
	if err != nil {
		t.Fatal(err)
	}
	spec, key := cachetest.TestSpec(t)
	e, err := store.NewEntry(key, spec, bench.Point{Nodes: spec.X, Value: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(e); !errors.Is(err, store.ErrReadOnly) {
		t.Fatalf("Put to read-only sweepd = %v, want errors.Is(_, store.ErrReadOnly)", err)
	}
}

// TestPublishRunAndHealthz: the watch-feed path end to end against a
// real sweepd, which also answers its health probe.
func TestPublishRunAndHealthz(t *testing.T) {
	ts, _ := openServer(t)
	c, err := remote.Open(ts.URL, fast()...)
	if err != nil {
		t.Fatal(err)
	}
	health, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", health.StatusCode)
	}
	rec := sweep.ReportRun{Record: store.Record{Figure: "fig6a", Series: "Charm-D", X: 2, Nodes: 2, Iters: 2, Value: 3}, Source: "sim"}
	if err := c.PublishRun("nightly", rec); err != nil {
		t.Fatal(err)
	}
	if err := c.PublishRun("", rec); err == nil {
		t.Fatal("PublishRun with empty sweep id should error")
	}

	resp, err := http.Get(ts.URL + "/v1/sweep/nightly")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf [4096]byte
	n, _ := resp.Body.Read(buf[:])
	if !strings.Contains(string(buf[:n]), `"figure"`) {
		t.Fatalf("published run not visible in snapshot: %s", buf[:n])
	}
}

// TestTokenRoundTripAndUnauthorized: a tokened client works against a
// tokened sweepd end to end; a missing or wrong token maps every call
// to ErrUnauthorized without retries and without tripping the breaker
// (the server answered — it is alive, just unpersuaded).
func TestTokenRoundTripAndUnauthorized(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(sweepd.New(st, t.Logf, sweepd.WithToken("hunter2")))
	t.Cleanup(ts.Close)

	good, err := remote.Open(ts.URL, fast(remote.WithToken("hunter2"))...)
	if err != nil {
		t.Fatal(err)
	}
	spec, key := cachetest.TestSpec(t)
	e, err := store.NewEntry(key, spec, bench.Point{Nodes: spec.X, Value: 4.5, Routing: "adaptive"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := good.Put(e); err != nil {
		t.Fatal(err)
	}
	back, ok, err := good.Get(key)
	if err != nil || !ok {
		t.Fatalf("tokened Get = (%v, %v), want a hit", ok, err)
	}
	if back.Routing != "adaptive" {
		t.Fatalf("entry routing did not round-trip: got %q", back.Routing)
	}

	bad, err := remote.Open(ts.URL, fast(remote.WithToken("wrong"), remote.WithAttempts(1), remote.WithDownAfter(1))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := bad.Get(key); !errors.Is(err, remote.ErrUnauthorized) {
		t.Fatalf("Get with wrong token = %v, want errors.Is(_, ErrUnauthorized)", err)
	}
	if err := bad.Put(e); !errors.Is(err, remote.ErrUnauthorized) {
		t.Fatalf("Put with wrong token = %v, want errors.Is(_, ErrUnauthorized)", err)
	}
	if err := bad.PublishRun("nightly", sweep.ReportRun{Record: store.Record{Figure: "f", Series: "s"}}); !errors.Is(err, remote.ErrUnauthorized) {
		t.Fatalf("PublishRun with wrong token = %v, want errors.Is(_, ErrUnauthorized)", err)
	}
	if bad.Down() {
		t.Fatal("401s tripped the breaker; completed exchanges must count as proof of life")
	}
}
