// Package remote implements sweep.Cache over HTTP against a sweepd
// server, so many worker machines can share one content-addressed run
// store. The client is built to fail open: the orchestrator treats
// every error it returns as a cache miss and simulates instead, so a
// slow, flaky or dead sweepd can cost wall time but never a figure.
//
// Three behaviours keep that cost bounded:
//
//   - Bounded retries. Transport errors and 5xx responses are retried
//     with exponential backoff a fixed number of times; 4xx responses
//     never are (the server understood us and said no).
//   - A one-way breaker. After WithDownAfter consecutive transport
//     failures the client marks the server down and every later call
//     fails fast with ErrUnavailable — a killed sweepd costs a few
//     timeouts total, not one per run. Any successful HTTP exchange
//     before the trip resets the count.
//   - Short per-request timeouts (WithTimeout), so a black-holed
//     connection cannot stall a sweep cell indefinitely.
//
// Compose with the local disk store via sweep.Tiered so warm local
// entries never touch the network and remote hits seed the local tier.
package remote

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"gat/internal/sweep"
	"gat/internal/sweep/store"
)

// ErrUnavailable reports that the breaker has tripped: the server
// failed too many consecutive exchanges and the client now fails fast
// instead of paying a timeout per call. The orchestrator treats it
// like any other cache error — complain once, simulate.
var ErrUnavailable = errors.New("remote cache marked unavailable after repeated failures")

// ErrUnauthorized reports a 401 from a token-protected sweepd: the
// client's token (possibly absent) was rejected. Like every 4xx it is
// never retried — the same bytes would be refused again — but it gets
// its own sentinel so the orchestrator can say "fix -remote-token"
// instead of a generic cache complaint. The exchange itself completed,
// so a 401 feeds the breaker as proof of life, not failure.
var ErrUnauthorized = errors.New("remote cache rejected the bearer token")

// Option configures a Client.
type Option func(*Client)

// WithTimeout bounds each individual HTTP exchange (default 5s).
func WithTimeout(d time.Duration) Option { return func(c *Client) { c.hc.Timeout = d } }

// WithAttempts sets how many times a retryable request is tried in
// total, including the first attempt (default 3, minimum 1).
func WithAttempts(n int) Option { return func(c *Client) { c.attempts = max(1, n) } }

// WithBackoff sets the sleep before the first retry; it doubles each
// further retry (default 100ms).
func WithBackoff(d time.Duration) Option { return func(c *Client) { c.backoff = d } }

// WithDownAfter sets how many consecutive failed exchanges trip the
// breaker (default 3, minimum 1).
func WithDownAfter(n int) Option { return func(c *Client) { c.downAfter = max(1, n) } }

// WithToken sends "Authorization: Bearer <token>" on every request,
// matching a sweepd started with -token. An empty token sends no
// header (the open-server default).
func WithToken(token string) Option { return func(c *Client) { c.token = token } }

// Client is a sweep.Cache backed by a sweepd server.
type Client struct {
	base      string
	hc        *http.Client
	token     string
	attempts  int
	backoff   time.Duration
	downAfter int

	mu    sync.Mutex
	fails int
	down  bool
}

// Open builds a client for the sweepd at base (e.g.
// "http://cachehost:8344"). It does not touch the network: a sweep
// pointed at a server that never comes up still runs, it just
// simulates everything.
func Open(base string, opts ...Option) (*Client, error) {
	u, err := url.Parse(base)
	if err != nil {
		return nil, fmt.Errorf("remote: parsing base URL: %w", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("remote: base URL %q must be http:// or https://", base)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("remote: base URL %q has no host", base)
	}
	c := &Client{
		base:      strings.TrimRight(base, "/"),
		hc:        &http.Client{Timeout: 5 * time.Second},
		attempts:  3,
		backoff:   100 * time.Millisecond,
		downAfter: 3,
	}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// Down reports whether the breaker has tripped.
func (c *Client) Down() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.down
}

// checkDown fails fast once the breaker has tripped.
func (c *Client) checkDown() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down {
		return fmt.Errorf("remote %s: %w", c.base, ErrUnavailable)
	}
	return nil
}

// recordExchange feeds the breaker: any completed HTTP exchange —
// whatever the status code — proves the server is alive and resets
// the count; a transport-level failure increments it.
func (c *Client) recordExchange(ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ok {
		c.fails = 0
		return
	}
	c.fails++
	if c.fails >= c.downAfter {
		c.down = true
	}
}

// retryable reports whether a response status is worth retrying.
// 5xx means the server glitched; 4xx means it understood the request
// and rejected it, so retrying the same bytes cannot help.
func retryable(status int) bool { return status >= 500 }

// do runs one request with bounded retries and feeds the breaker. The
// caller owns the returned body. A nil response with nil error never
// happens: either resp is live or err is set.
func (c *Client) do(method, path string, body []byte) (*http.Response, error) {
	if err := c.checkDown(); err != nil {
		return nil, err
	}
	var lastErr error
	for attempt := 0; attempt < c.attempts; attempt++ {
		if attempt > 0 {
			// Host wall time by definition: network backoff between
			// retries. Never observable in figure values.
			time.Sleep(c.backoff << (attempt - 1)) //gat:nondet-ok HTTP retry backoff; host-side network path
		}
		req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("remote: building %s %s: %w", method, path, err)
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if c.token != "" {
			req.Header.Set("Authorization", "Bearer "+c.token)
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			c.recordExchange(false)
			lastErr = fmt.Errorf("remote: %s %s: %w", method, path, err)
			if err := c.checkDown(); err != nil {
				return nil, errors.Join(lastErr, err)
			}
			continue
		}
		c.recordExchange(true)
		if resp.StatusCode == http.StatusUnauthorized {
			// A completed exchange (breaker already fed above), mapped to
			// the sentinel here so every caller gets it uniformly.
			drain(resp)
			return nil, fmt.Errorf("remote: %s %s: %w", method, path, ErrUnauthorized)
		}
		if retryable(resp.StatusCode) && attempt+1 < c.attempts {
			lastErr = fmt.Errorf("remote: %s %s: server error %d", method, path, resp.StatusCode)
			drain(resp)
			continue
		}
		return resp, nil
	}
	return nil, lastErr
}

// drain discards a response body so the connection can be reused.
func drain(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}

// errorBody extracts the server's plain-text diagnostic for a non-2xx
// response, truncated to one log-friendly line.
func errorBody(resp *http.Response) string {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	s := strings.TrimSpace(string(data))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if s == "" {
		return resp.Status
	}
	return s
}

// Get implements sweep.Cache. A 404 is a clean miss; a payload that
// fails validation (foreign schema, key mismatch) is reported as an
// error so the orchestrator logs it, but is still a miss — the client
// never forwards bytes it cannot vouch for.
func (c *Client) Get(key string) (store.Entry, bool, error) {
	var zero store.Entry
	if !store.ValidKey(key) {
		return zero, false, fmt.Errorf("remote: malformed cache key %q", key)
	}
	resp, err := c.do(http.MethodGet, "/v1/entry/"+key, nil)
	if err != nil {
		return zero, false, err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusNotFound:
		drainRest(resp)
		return zero, false, nil
	case resp.StatusCode != http.StatusOK:
		return zero, false, fmt.Errorf("remote: GET entry %s: %s", key, errorBody(resp))
	}
	var e store.Entry
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&e); err != nil {
		return zero, false, fmt.Errorf("remote: GET entry %s: undecodable payload: %w", key, err)
	}
	if err := e.Validate(); err != nil {
		return zero, false, fmt.Errorf("remote: GET entry %s: server returned invalid entry: %w", key, err)
	}
	if e.Key != key {
		return zero, false, fmt.Errorf("remote: GET entry %s: server returned entry for key %s", key, e.Key)
	}
	return e, true, nil
}

// drainRest discards whatever is left on an already-deferred body.
func drainRest(resp *http.Response) { io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20)) }

// Put implements sweep.Cache. A 403 from a read-only sweepd maps to
// store.ErrReadOnly so callers can errors.Is it exactly like a local
// read-only store.
func (c *Client) Put(e store.Entry) error {
	if err := e.Validate(); err != nil {
		return fmt.Errorf("remote: refusing to PUT: %w", err)
	}
	body, err := json.Marshal(&e)
	if err != nil {
		return fmt.Errorf("remote: encoding entry: %w", err)
	}
	resp, err := c.do(http.MethodPut, "/v1/entry/"+e.Key, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent, http.StatusOK, http.StatusCreated:
		drainRest(resp)
		return nil
	case http.StatusForbidden:
		return fmt.Errorf("remote: PUT entry %s: %s: %w", e.Key, errorBody(resp), store.ErrReadOnly)
	default:
		return fmt.Errorf("remote: PUT entry %s: %s", e.Key, errorBody(resp))
	}
}

// PublishRun registers one completed run under sweepID on the server,
// feeding /v1/watch streams. Meant to be called from sweep.Options.
// Notify; errors are advisory (the sweep's own report is still the
// source of truth).
func (c *Client) PublishRun(sweepID string, rec sweep.ReportRun) error {
	if sweepID == "" {
		return errors.New("remote: PublishRun needs a sweep id")
	}
	body, err := json.Marshal(&rec)
	if err != nil {
		return fmt.Errorf("remote: encoding run record: %w", err)
	}
	resp, err := c.do(http.MethodPost, "/v1/sweep/"+url.PathEscape(sweepID)+"/run", body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("remote: publish run to sweep %q: %s", sweepID, errorBody(resp))
	}
	drainRest(resp)
	return nil
}
