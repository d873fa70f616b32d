// Package client is the typed Go client for the sacserver /v1 HTTP API —
// the supported way for downstream programs to consume SAC search over the
// network instead of hand-rolling HTTP requests.
//
//	cl, err := client.New("http://localhost:8080")
//	res, err := cl.Query(ctx, client.Query{Q: 17, K: 4, Algo: "exact+"})
//
// The client reuses connections (one shared http.Transport), honors the
// caller's context on every call, and retries requests that fail with 503
// Service Unavailable or 429 — the statuses the server uses for transient
// conditions (query deadline pressure, a draining writer, a replica shedding
// stale reads) — with jittered exponential backoff, honoring the server's
// Retry-After hint when present. Every API operation is idempotent (queries
// are reads; check-in sets a location, edge insert/delete converge), so
// retrying is always safe.
//
// For a replicated deployment — one leader plus read replicas — use a Set
// (NewSet): it round-robins reads across every endpoint and routes writes
// to whichever endpoint accepts them, failing over on 503 and transport
// errors, so a leader promotion needs no client reconfiguration beyond
// having listed the candidates.
//
// Errors from non-2xx responses are *APIError values carrying the HTTP
// status, the machine-readable code from the server's structured error
// envelope, the offending field when known, and the request id for
// correlation with server logs. A query that finds no community satisfies
// errors.Is(err, client.ErrNoCommunity).
//
// The request, response and event types are aliases of the one declaration of
// the /v1 schema, internal/wire — the same types the servers encode — so the
// two sides cannot drift; the client imports nothing else of this module.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"sacsearch/internal/wire"
)

// ErrNoCommunity is the sentinel matched (via errors.Is) by query errors
// whose server code reports that the query vertex has no feasible
// community for the requested k.
var ErrNoCommunity = errors.New("sac client: no community")

// APIError is a non-2xx response decoded from the server's structured
// error envelope.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the machine-readable error code ("unknown_algorithm",
	// "invalid_param", "no_community", "deadline_exceeded", ...).
	Code string
	// Field names the offending request field, when the server knows it.
	Field string
	// Message is the human-readable error message.
	Message string
	// RequestID correlates the failure with server logs.
	RequestID string
	// SpanID is the serving daemon's root trace span id (the X-Trace-Span
	// response header), correlating the failure with its trace tree.
	SpanID string
	// RetryAfter is the server's Retry-After hint on 503/429 responses
	// (0 = no header). The retry loop sleeps this long instead of its own
	// backoff when present.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sac client: server returned %d", e.Status)
	if e.Code != "" {
		fmt.Fprintf(&b, " (%s)", e.Code)
	}
	if e.Message != "" {
		b.WriteString(": " + e.Message)
	}
	if e.RequestID != "" {
		fmt.Fprintf(&b, " [request %s]", e.RequestID)
	}
	return b.String()
}

// Is lets errors.Is match the well-known codes without the caller
// inspecting Code by hand.
func (e *APIError) Is(target error) bool {
	return target == ErrNoCommunity && e.Code == wire.CodeNoCommunity
}

// Context keys carrying outbound correlation headers; set via
// WithRequestID / WithTraceSpan.
type (
	requestIDCtxKey struct{}
	traceSpanCtxKey struct{}
)

// WithRequestID returns a context that makes every client call under it
// send the given X-Request-Id header, so a multi-hop topology (client →
// router → shards) logs one id end to end.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDCtxKey{}, id)
}

// WithTraceSpan returns a context that makes every client call under it
// send the given X-Trace-Span header — the caller's span id — so the
// receiving daemon parents its trace under the caller's span.
func WithTraceSpan(ctx context.Context, spanID string) context.Context {
	return context.WithValue(ctx, traceSpanCtxKey{}, spanID)
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (custom
// transports, proxies, test doubles).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetries sets how many times a 503 (or transport failure) is retried
// beyond the first attempt. Default 3; 0 disables retrying.
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// WithRetryBackoff sets the initial retry backoff (doubled per attempt,
// with ±50% jitter so a fleet of clients does not retry in lockstep).
// Default 100ms. A server Retry-After hint overrides the backoff for that
// sleep.
func WithRetryBackoff(d time.Duration) Option { return func(c *Client) { c.backoff = d } }

// Client talks to one sacserver. It is safe for concurrent use.
type Client struct {
	base    *url.URL
	hc      *http.Client
	retries int
	backoff time.Duration
}

// New creates a client for the server at baseURL (scheme and host, e.g.
// "http://localhost:8080"; any path prefix is kept, so a reverse-proxied
// "https://geo.example.com/sac" works too).
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("sac client: invalid base URL %q: %w", baseURL, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("sac client: base URL %q must be http or https", baseURL)
	}
	c := &Client{
		base:    u,
		hc:      &http.Client{Timeout: 60 * time.Second},
		retries: 3,
		backoff: 100 * time.Millisecond,
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// --- wire types -----------------------------------------------------------

// The /v1 schema's types, as internal/wire declares and documents them.
// Query's parameter pointers distinguish "absent → server default" from an
// explicit zero; build them with Float.
type (
	Query      = wire.Query
	Circle     = wire.Circle
	Stats      = wire.Stats
	Result     = wire.Result
	BatchQuery = wire.BatchQuery
	BatchItem  = wire.BatchItem
	AlgoParam  = wire.AlgoParam
	AlgoInfo   = wire.AlgoInfo
	Health     = wire.Health
	Vertex     = wire.Vertex
	EdgeResult = wire.EdgeResult
)

// Float returns a pointer to v, for setting optional parameters inline.
func Float(v float64) *float64 { return &v }

// BatchOptions selects the algorithm and parameters shared by a whole
// batch, plus the server-side worker count (0 = server default).
type BatchOptions struct {
	Algo      string
	EpsF      *float64
	EpsA      *float64
	Theta     *float64
	Structure string
	Workers   int
}

// --- operations -----------------------------------------------------------

// Health fetches /v1/health.
func (c *Client) Health(ctx context.Context) (*Health, error) {
	return call[Health](ctx, c, http.MethodGet, "/v1/health", nil)
}

// Algorithms fetches the algorithm registry from /v1/algorithms.
func (c *Client) Algorithms(ctx context.Context) ([]AlgoInfo, error) {
	var out []AlgoInfo
	if err := c.do(ctx, http.MethodGet, "/v1/algorithms", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Vertex fetches one vertex's location, degree and core number.
func (c *Client) Vertex(ctx context.Context, id int64) (*Vertex, error) {
	return call[Vertex](ctx, c, http.MethodGet, fmt.Sprintf("/v1/vertex/%d", id), nil)
}

// Query runs one SAC query. The answer is read by wire.DecodeResult, the
// single pass over the layout the servers write.
func (c *Client) Query(ctx context.Context, q Query) (*Result, error) {
	out := new(Result)
	decode := bodyDecoder(func(raw []byte) error { return wire.DecodeResult(raw, out) })
	if err := c.do(ctx, http.MethodPost, "/v1/query", q, decode); err != nil {
		return nil, err
	}
	return out, nil
}

// Batch answers many queries in one request; items come back in input
// order, failed items with their Error set. A nil opt runs the server
// defaults (AppFast on GOMAXPROCS workers).
func (c *Client) Batch(ctx context.Context, queries []BatchQuery, opt *BatchOptions) ([]BatchItem, error) {
	req := wire.BatchRequest{Queries: queries}
	if opt != nil {
		req.Algo, req.EpsF, req.EpsA, req.Theta = opt.Algo, opt.EpsF, opt.EpsA, opt.Theta
		req.Structure, req.Workers = opt.Structure, opt.Workers
	}
	var out wire.BatchResponse
	if err := c.do(ctx, http.MethodPost, "/v1/batch", req, &out); err != nil {
		return nil, err
	}
	return out.Items, nil
}

// CheckIn moves vertex v to (x, y). The call returns once a snapshot
// containing the move is published (read-your-writes).
func (c *Client) CheckIn(ctx context.Context, v int64, x, y float64) error {
	return c.do(ctx, http.MethodPost, "/v1/checkin", wire.CheckinRequest{V: v, X: x, Y: y}, nil)
}

// Edge inserts (insert = true) or deletes one undirected friendship edge.
func (c *Client) Edge(ctx context.Context, u, v int64, insert bool) (*EdgeResult, error) {
	op := "delete"
	if insert {
		op = "insert"
	}
	return call[EdgeResult](ctx, c, http.MethodPost, "/v1/edge", wire.EdgeRequest{U: u, V: v, Op: op})
}

// --- transport ------------------------------------------------------------

// jitter spreads a backoff uniformly over [d/2, 3d/2) so a herd of clients
// whose requests failed together does not retry together.
func jitter(d time.Duration) time.Duration {
	return time.Duration(float64(d) * (0.5 + rand.Float64()))
}

// bodyDecoder is an out for do that reads the 2xx body itself; any other
// non-nil out is filled by json.Unmarshal.
type bodyDecoder func(raw []byte) error

// call is do for the common shape: the 2xx body decodes into a fresh T.
func call[T any](ctx context.Context, c *Client, method, path string, in any) (*T, error) {
	out := new(T)
	if err := c.do(ctx, method, path, in, out); err != nil {
		return nil, err
	}
	return out, nil
}

// do sends one API call with retry-on-503/429: the request body is
// marshaled once and replayed on each attempt, backoff doubles per retry
// with ±50% jitter (a server Retry-After hint overrides it for that sleep),
// and the context bounds the whole loop (sleeps included). Transport-level
// failures retry the same way; other API errors — and a 503 coded
// read_only, which means this node will not accept the write no matter how
// long we wait — return immediately.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("sac client: encoding request: %w", err)
		}
	}
	u := c.base.JoinPath(path)
	backoff := c.backoff
	var lastErr error
	var retryAfter time.Duration
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			sleep := jitter(backoff)
			if retryAfter > 0 {
				sleep = retryAfter
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("sac client: %w (last error: %w)", ctx.Err(), lastErr)
			case <-time.After(sleep):
			}
			backoff *= 2
			retryAfter = 0
		}
		var rd io.Reader
		if in != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, u.String(), rd)
		if err != nil {
			return fmt.Errorf("sac client: building request: %w", err)
		}
		if in != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if id, _ := ctx.Value(requestIDCtxKey{}).(string); id != "" {
			req.Header.Set("X-Request-Id", id)
		}
		if sp, _ := ctx.Value(traceSpanCtxKey{}).(string); sp != "" {
			req.Header.Set("X-Trace-Span", sp)
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return fmt.Errorf("sac client: %w", err)
			}
			lastErr = err // transient transport failure: retry
			continue
		}
		apiErr, err := consume(resp, out)
		if err != nil {
			return err
		}
		if apiErr == nil {
			return nil
		}
		retryable := apiErr.Status == http.StatusServiceUnavailable ||
			apiErr.Status == http.StatusTooManyRequests
		if !retryable || apiErr.Code == wire.CodeReadOnly {
			return apiErr
		}
		retryAfter = apiErr.RetryAfter
		lastErr = apiErr // 503/429: retry
	}
	return fmt.Errorf("sac client: giving up after %d attempts: %w", c.retries+1, lastErr)
}

// consume decodes one response: 2xx into out, non-2xx into an *APIError
// built from the structured envelope (or a synthesized one when the body
// is not an envelope — a proxy's bare 502, say).
func consume(resp *http.Response, out any) (*APIError, error) {
	defer resp.Body.Close()
	// One read into a buffer sized by Content-Length when the server sent it
	// (a /v1/query answer runs to tens of kilobytes), capped like the body.
	const maxBody = 64 << 20
	buf := bytes.NewBuffer(make([]byte, 0, min(max(resp.ContentLength, 0), maxBody)+bytes.MinRead))
	if _, err := buf.ReadFrom(io.LimitReader(resp.Body, maxBody)); err != nil {
		return nil, fmt.Errorf("sac client: reading response: %w", err)
	}
	raw := buf.Bytes()
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		if out == nil {
			return nil, nil
		}
		var err error
		if dec, ok := out.(bodyDecoder); ok {
			err = dec(raw)
		} else {
			err = json.Unmarshal(raw, out)
		}
		if err != nil {
			return nil, fmt.Errorf("sac client: decoding response: %w", err)
		}
		return nil, nil
	}
	var env wire.Error
	apiErr := &APIError{
		Status:    resp.StatusCode,
		RequestID: resp.Header.Get("X-Request-Id"),
		SpanID:    resp.Header.Get("X-Trace-Span"),
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		// Delta-seconds form only (what sacserver sends); capped so a
		// misconfigured header cannot park the retry loop for minutes.
		if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
			if secs > 30 {
				secs = 30
			}
			apiErr.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	if json.Unmarshal(raw, &env) == nil && env.Error != "" {
		apiErr.Message, apiErr.Code, apiErr.Field = env.Error, env.Code, env.Field
		if env.RequestID != "" {
			apiErr.RequestID = env.RequestID
		}
	} else {
		apiErr.Message = strings.TrimSpace(string(raw))
	}
	return apiErr, nil
}
