package sweepd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gat/internal/bench"
	"gat/internal/sweep"
	"gat/internal/sweep/cachetest"
	"gat/internal/sweep/store"
)

// newServer spins up a sweepd over a fresh temp-dir store.
func newServer(t *testing.T) (*httptest.Server, *store.Store) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(st, t.Logf))
	t.Cleanup(ts.Close)
	return ts, st
}

func testEntry(t *testing.T) store.Entry {
	t.Helper()
	spec, key := cachetest.TestSpec(t)
	e, err := store.NewEntry(key, spec, bench.Point{Nodes: spec.X, Value: 2.25, Meta: "ODF-2"}, 777)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func doJSON(t *testing.T, method, url string, body []byte) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(data)
}

func TestEntryPutGetRoundTrip(t *testing.T) {
	ts, _ := newServer(t)
	e := testEntry(t)
	body, _ := json.Marshal(&e)

	resp, msg := doJSON(t, http.MethodPut, ts.URL+"/v1/entry/"+e.Key, body)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT = %d: %s", resp.StatusCode, msg)
	}
	// Idempotent: the identical PUT succeeds again.
	resp, msg = doJSON(t, http.MethodPut, ts.URL+"/v1/entry/"+e.Key, body)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("re-PUT = %d: %s", resp.StatusCode, msg)
	}

	resp, got := doJSON(t, http.MethodGet, ts.URL+"/v1/entry/"+e.Key, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET = %d: %s", resp.StatusCode, got)
	}
	var back store.Entry
	if err := json.Unmarshal([]byte(got), &back); err != nil {
		t.Fatal(err)
	}
	if back != e {
		t.Fatalf("entry did not round-trip:\n got %+v\nwant %+v", back, e)
	}
}

func TestEntryGetMissIs404(t *testing.T) {
	ts, _ := newServer(t)
	resp, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/entry/deadbeefdeadbeefdeadbeefdeadbeef", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET missing entry = %d, want 404", resp.StatusCode)
	}
}

func TestEntryRejectsBadKeysAndPayloads(t *testing.T) {
	ts, _ := newServer(t)
	e := testEntry(t)

	// Malformed keys 400 on both verbs; traversal shapes never reach
	// the filesystem.
	for _, key := range []string{"short", "DEADBEEFDEADBEEFDEADBEEFDEADBEEF", "..%2F..%2Fetc%2Fpasswd"} {
		resp, msg := doJSON(t, http.MethodGet, ts.URL+"/v1/entry/"+key, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %q = %d (%s), want 400", key, resp.StatusCode, msg)
		}
	}

	// Foreign schema: friendly 400 naming the accepted schema.
	bad := e
	bad.Schema = "gat-cache-v9"
	body, _ := json.Marshal(&bad)
	resp, msg := doJSON(t, http.MethodPut, ts.URL+"/v1/entry/"+e.Key, body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, store.Schema) {
		t.Fatalf("foreign-schema PUT = %d (%s), want friendly 400 naming %s", resp.StatusCode, msg, store.Schema)
	}

	// Key mismatch between URL and body.
	other := "0123456789abcdef0123456789abcdef"
	body, _ = json.Marshal(&e)
	resp, msg = doJSON(t, http.MethodPut, ts.URL+"/v1/entry/"+other, body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched-key PUT = %d (%s), want 400", resp.StatusCode, msg)
	}

	// Not JSON at all.
	resp, msg = doJSON(t, http.MethodPut, ts.URL+"/v1/entry/"+e.Key, []byte("not json"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage PUT = %d (%s), want 400", resp.StatusCode, msg)
	}
}

// TestEntryCorruptSlotHeals: a rotten file serves as 404 (miss), and
// the next PUT replaces it — the disk store's healing semantics,
// surfaced over HTTP.
func TestEntryCorruptSlotHeals(t *testing.T) {
	ts, st := newServer(t)
	e := testEntry(t)
	path := st.Path(e.Key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("rot"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/entry/"+e.Key, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("corrupt entry GET = %d, want 404 miss", resp.StatusCode)
	}
	body, _ := json.Marshal(&e)
	if resp, msg := doJSON(t, http.MethodPut, ts.URL+"/v1/entry/"+e.Key, body); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("healing PUT = %d: %s", resp.StatusCode, msg)
	}
	resp, got := doJSON(t, http.MethodGet, ts.URL+"/v1/entry/"+e.Key, nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(got, e.Key) {
		t.Fatalf("healed GET = %d: %s", resp.StatusCode, got)
	}
}

func TestReadOnlyStorePutIs403(t *testing.T) {
	dir := t.TempDir()
	if _, err := store.Open(dir); err != nil { // create layout
		t.Fatal(err)
	}
	ro, err := store.OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(ro, t.Logf))
	defer ts.Close()

	e := testEntry(t)
	body, _ := json.Marshal(&e)
	resp, msg := doJSON(t, http.MethodPut, ts.URL+"/v1/entry/"+e.Key, body)
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("read-only PUT = %d (%s), want 403", resp.StatusCode, msg)
	}
	if !strings.Contains(msg, "read-only") {
		t.Fatalf("403 body should say read-only, got: %s", msg)
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := newServer(t)
	resp, body := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"ok":true`) {
		t.Fatalf("healthz = %d: %s", resp.StatusCode, body)
	}
}

func runRecord(fig, series string, x int) sweep.ReportRun {
	return sweep.ReportRun{Record: store.Record{Figure: fig, Series: series, X: x, Nodes: x, Iters: 2, Value: float64(x) * 1.5}, Source: "sim"}
}

func postRun(t *testing.T, url, id string, rec sweep.ReportRun) {
	t.Helper()
	body, _ := json.Marshal(&rec)
	resp, msg := doJSON(t, http.MethodPost, url+"/v1/sweep/"+id+"/run", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST run = %d: %s", resp.StatusCode, msg)
	}
}

func TestRunPostValidation(t *testing.T) {
	ts, _ := newServer(t)
	// Garbage body.
	resp, msg := doJSON(t, http.MethodPost, ts.URL+"/v1/sweep/s/run", []byte("nope"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage run POST = %d (%s), want 400", resp.StatusCode, msg)
	}
	// Well-formed JSON that isn't a run record.
	resp, msg = doJSON(t, http.MethodPost, ts.URL+"/v1/sweep/s/run", []byte(`{"hello":"world"}`))
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, sweep.SchemaV3) {
		t.Fatalf("foreign run POST = %d (%s), want friendly 400 naming %s", resp.StatusCode, msg, sweep.SchemaV3)
	}
}

// TestWatchListThenStream is the list-watch contract: a late watcher
// replays everything already registered, then receives live lines.
func TestWatchListThenStream(t *testing.T) {
	ts, _ := newServer(t)
	const id = "nightly"

	// Two runs land before the watcher attaches (the "list" half).
	postRun(t, ts.URL, id, runRecord("fig6a", "Charm-D", 1))
	postRun(t, ts.URL, id, runRecord("fig6a", "Charm-D", 2))

	resp, err := http.Get(ts.URL + "/v1/watch/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("watch Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	readLine := func() sweep.ReportRun {
		t.Helper()
		if !sc.Scan() {
			t.Fatalf("watch stream ended early: %v", sc.Err())
		}
		var rec sweep.ReportRun
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("stream line is not a run record: %v (%s)", err, sc.Text())
		}
		return rec
	}

	if got := readLine(); got.X != 1 {
		t.Fatalf("replay line 1 = %+v, want x=1", got)
	}
	if got := readLine(); got.X != 2 {
		t.Fatalf("replay line 2 = %+v, want x=2", got)
	}

	// A third run lands while the watcher is parked (the "watch" half).
	postRun(t, ts.URL, id, runRecord("fig6a", "MPI-H", 4))
	if got := readLine(); got.X != 4 || got.Series != "MPI-H" {
		t.Fatalf("live line = %+v, want MPI-H x=4", got)
	}
}

// TestWatchBeforeAnyPublish: attaching to a sweep nobody has published
// to is legal and the watcher survives to see the first run.
func TestWatchBeforeAnyPublish(t *testing.T) {
	ts, _ := newServer(t)
	resp, err := http.Get(ts.URL + "/v1/watch/early")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	postRun(t, ts.URL, "early", runRecord("fig7b", "Charm-D", 8))
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("watcher attached before publish saw nothing: %v", sc.Err())
	}
	var rec sweep.ReportRun
	if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Figure != "fig7b" || rec.X != 8 {
		t.Fatalf("first line = %+v", rec)
	}
}

func TestSweepSnapshot(t *testing.T) {
	ts, _ := newServer(t)
	postRun(t, ts.URL, "snap", runRecord("fig6a", "Charm-D", 1))
	postRun(t, ts.URL, "snap", runRecord("fig6a", "Charm-D", 2))
	resp, body := doJSON(t, http.MethodGet, ts.URL+"/v1/sweep/snap", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot = %d: %s", resp.StatusCode, body)
	}
	var snap struct {
		Sweep string            `json:"sweep"`
		Runs  []sweep.ReportRun `json:"runs"`
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, body)
	}
	if snap.Sweep != "snap" || len(snap.Runs) != 2 {
		t.Fatalf("snapshot = %+v, want 2 runs under 'snap'", snap)
	}
}

// TestSweepSnapshotIDIsJSON: the snapshot names its sweep in JSON's
// string syntax whatever the id holds — Go's %q would write DEL and
// control bytes as \x escapes, which JSON does not have.
func TestSweepSnapshotIDIsJSON(t *testing.T) {
	ts, _ := newServer(t)
	resp, body := doJSON(t, http.MethodGet, ts.URL+"/v1/sweep/a%7Fb%01c", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot = %d: %s", resp.StatusCode, body)
	}
	var snap struct {
		Sweep string            `json:"sweep"`
		Runs  []sweep.ReportRun `json:"runs"`
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, body)
	}
	if snap.Sweep != "a\x7fb\x01c" || len(snap.Runs) != 0 {
		t.Fatalf("snapshot = %+v, want no runs under %q", snap, "a\x7fb\x01c")
	}
}

// TestRefusedReportPublishesNothing: a report with one invalid run is
// refused whole — neither the snapshot nor a watcher attached before it
// sees the runs that came before the invalid one.
func TestRefusedReportPublishesNothing(t *testing.T) {
	ts, _ := newServer(t)
	const id = "partial"
	watch, err := http.Get(ts.URL + "/v1/watch/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer watch.Body.Close()

	bad := runRecord("fig6a", "Charm-D", 2)
	bad.Figure = ""
	rep := sweep.Report{
		Schema:  sweep.SchemaV3,
		Figures: []sweep.ReportFigure{{ID: "fig6a", Runs: []sweep.ReportRun{runRecord("fig6a", "Charm-D", 1), bad}}},
	}
	body, _ := json.Marshal(&rep)
	resp, msg := doJSON(t, http.MethodPost, ts.URL+"/v1/sweep/"+id+"/report", body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, "run 1") {
		t.Fatalf("report with a figureless run = %d (%s), want a 400 naming run 1", resp.StatusCode, msg)
	}
	resp, msg = doJSON(t, http.MethodGet, ts.URL+"/v1/sweep/"+id, nil)
	if resp.StatusCode != http.StatusOK || strings.Contains(msg, `"figure"`) {
		t.Fatalf("after a refused report, snapshot = %d: %s", resp.StatusCode, msg)
	}

	// The watcher's first line must be the next accepted run.
	postRun(t, ts.URL, id, runRecord("fig7b", "MPI-D", 8))
	sc := bufio.NewScanner(watch.Body)
	if !sc.Scan() {
		t.Fatalf("watch stream ended early: %v", sc.Err())
	}
	var rec sweep.ReportRun
	if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Figure != "fig7b" || rec.X != 8 {
		t.Fatalf("watcher's first line = %+v, want the fig7b run posted after the refused report", rec)
	}
}

// TestReportPost covers the bulk-publish path and its version gate:
// v3 reports register every run; v1/v2 and foreign schemas get the
// friendly 400 built on sweep.ErrUnknownSchema.
func TestReportPost(t *testing.T) {
	ts, _ := newServer(t)

	rep := sweep.Report{
		Schema: sweep.SchemaV3,
		Figures: []sweep.ReportFigure{{
			ID:   "fig6a",
			Runs: []sweep.ReportRun{runRecord("fig6a", "Charm-D", 1), runRecord("fig6a", "Charm-D", 2)},
		}},
	}
	body, _ := json.Marshal(&rep)
	resp, msg := doJSON(t, http.MethodPost, ts.URL+"/v1/sweep/bulk/report", body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(msg, `"published":2`) {
		t.Fatalf("v3 report POST = %d: %s", resp.StatusCode, msg)
	}
	resp, msg = doJSON(t, http.MethodGet, ts.URL+"/v1/sweep/bulk", nil)
	if resp.StatusCode != http.StatusOK || strings.Count(msg, `"figure"`) != 2 {
		t.Fatalf("after report POST, snapshot = %d: %s", resp.StatusCode, msg)
	}

	// v2: well-formed, but carries no per-run values, so ReadJSON
	// refuses it — friendly 400 naming the schema, not a decode trace.
	rep.Schema = "gat-sweep-v2"
	body, _ = json.Marshal(&rep)
	resp, msg = doJSON(t, http.MethodPost, ts.URL+"/v1/sweep/bulk/report", body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, "gat-sweep-v2") {
		t.Fatalf("v2 report POST = %d (%s), want friendly 400", resp.StatusCode, msg)
	}

	// Foreign schema tag: the ErrUnknownSchema branch.
	resp, msg = doJSON(t, http.MethodPost, ts.URL+"/v1/sweep/bulk/report", []byte(`{"schema":"gat-sweep-v9"}`))
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, "unsupported sweep report schema") {
		t.Fatalf("foreign report POST = %d (%s), want unsupported-schema 400", resp.StatusCode, msg)
	}

	// Garbage: the decode-error branch.
	resp, msg = doJSON(t, http.MethodPost, ts.URL+"/v1/sweep/bulk/report", []byte("}{"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage report POST = %d (%s), want 400", resp.StatusCode, msg)
	}
}

// TestConcurrentPutsThroughServer: racing identical PUTs — two workers
// finishing the same fingerprint — must all succeed (content-addressed
// writes are conflict-free).
func TestConcurrentPutsThroughServer(t *testing.T) {
	ts, _ := newServer(t)
	e := testEntry(t)
	const writers = 8
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			dup := e
			dup.WallNS = int64(100 + w)
			body, _ := json.Marshal(&dup)
			req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/entry/"+e.Key, bytes.NewReader(body))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNoContent {
				errs <- fmt.Errorf("racing PUT %d: status %d", w, resp.StatusCode)
				return
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < writers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	resp, body := doJSON(t, http.MethodGet, ts.URL+"/v1/entry/"+e.Key, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after racing PUTs: GET = %d: %s", resp.StatusCode, body)
	}
}

// TestTokenAuth covers the bearer-token gate: without the right
// credential every endpoint but /healthz answers 401 with a Bearer
// challenge; with it the server behaves exactly like an open one.
func TestTokenAuth(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(st, t.Logf, WithToken("hunter2")))
	t.Cleanup(ts.Close)
	e := testEntry(t)
	body, _ := json.Marshal(&e)

	authed := func(method, url string, body []byte, token string) (*http.Response, string) {
		t.Helper()
		req, err := http.NewRequest(method, url, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, string(data)
	}

	// Missing and wrong tokens are rejected with a challenge.
	for _, token := range []string{"", "hunter3"} {
		resp, _ := authed(http.MethodPut, ts.URL+"/v1/entry/"+e.Key, body, token)
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("PUT with token %q = %d, want 401", token, resp.StatusCode)
		}
		if got := resp.Header.Get("WWW-Authenticate"); !strings.HasPrefix(got, "Bearer") {
			t.Fatalf("401 WWW-Authenticate = %q, want a Bearer challenge", got)
		}
	}
	// A rejected PUT must not have touched the store.
	if _, ok, _ := st.Get(e.Key); ok {
		t.Fatal("unauthorized PUT reached the store")
	}

	// The right token passes and the entry round-trips.
	if resp, msg := authed(http.MethodPut, ts.URL+"/v1/entry/"+e.Key, body, "hunter2"); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("authorized PUT = %d: %s", resp.StatusCode, msg)
	}
	if resp, msg := authed(http.MethodGet, ts.URL+"/v1/entry/"+e.Key, nil, "hunter2"); resp.StatusCode != http.StatusOK {
		t.Fatalf("authorized GET = %d: %s", resp.StatusCode, msg)
	}

	// /healthz stays open for probes.
	if resp, msg := authed(http.MethodGet, ts.URL+"/healthz", nil, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("unauthenticated healthz = %d: %s", resp.StatusCode, msg)
	}
}
