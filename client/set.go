package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"

	"sacsearch/internal/wire"
)

// Set is a client over a set of sacserver endpoints — typically one leader
// and its read replicas. Reads round-robin across every endpoint and fail
// over on 503 or transport errors (a replica shedding stale reads costs one
// extra hop, not an error); writes start at the endpoint that last accepted
// one and fail over the same way, so after a leader promotion the first
// write walks the set once, finds the new leader, and subsequent writes go
// straight there.
//
// An endpoint that answers a write with the read_only code is remembered as
// a replica: later writes skip it on the first pass instead of burning a
// request (and the endpoint's own retry budget) on a node that is known to
// refuse. Flagged endpoints are still probed on a second pass when no other
// endpoint accepts — that is how a promotion is discovered — and still serve
// reads as usual. A Set is safe for concurrent use.
type Set struct {
	clients  []*Client
	next     atomic.Uint64 // read round-robin cursor
	writer   atomic.Int64  // index of the endpoint that last accepted a write
	readOnly []atomic.Bool // endpoints whose last write answer was read_only
}

// NewSet creates a Set over the given base URLs. Order matters only as the
// initial write preference: list the expected leader first. opts apply to
// every per-endpoint client.
func NewSet(baseURLs []string, opts ...Option) (*Set, error) {
	if len(baseURLs) == 0 {
		return nil, errors.New("sac client: a Set needs at least one endpoint")
	}
	s := &Set{
		clients:  make([]*Client, len(baseURLs)),
		readOnly: make([]atomic.Bool, len(baseURLs)),
	}
	for i, u := range baseURLs {
		cl, err := New(u, opts...)
		if err != nil {
			return nil, err
		}
		s.clients[i] = cl
	}
	return s, nil
}

// Clients exposes the per-endpoint clients in NewSet order — for endpoint-
// specific calls like polling each node's Health during a failover drill.
func (s *Set) Clients() []*Client { return s.clients }

// failoverWorthy reports whether err on one endpoint justifies trying the
// next: transport-level failures and 503/429 responses do (the node is
// down, read-only, or shedding); everything else — validation errors, 404s,
// the caller's own context expiring — would fail identically everywhere.
func failoverWorthy(err error) bool {
	if err == nil {
		return false
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.Status == http.StatusServiceUnavailable ||
			apiErr.Status == http.StatusTooManyRequests
	}
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// read runs call against endpoints starting at the round-robin cursor,
// failing over until one answers.
func (s *Set) read(call func(*Client) error) error {
	start := int((s.next.Add(1) - 1) % uint64(len(s.clients)))
	var lastErr error
	for i := 0; i < len(s.clients); i++ {
		err := call(s.clients[(start+i)%len(s.clients)])
		if !failoverWorthy(err) {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("sac client: all %d endpoints failed: %w", len(s.clients), lastErr)
}

// isReadOnly reports whether err is a server refusal to write because the
// node is a replica (or a demoted leader) — a durable property of the
// endpoint, unlike the transient conditions failoverWorthy covers.
func isReadOnly(err error) bool {
	var apiErr *APIError
	return errors.As(err, &apiErr) && apiErr.Code == wire.CodeReadOnly
}

// write runs call against endpoints starting at the last known writer,
// remembering whichever endpoint accepts. Pass one skips endpoints flagged
// read-only by an earlier write; pass two probes exactly those, so a
// just-promoted leader is found even when every endpoint was flagged.
func (s *Set) write(call func(*Client) error) error {
	start := int(s.writer.Load()) % len(s.clients)
	var lastErr error
	tried := make([]bool, len(s.clients))
	attempt := func(idx int) (done bool, err error) {
		tried[idx] = true
		err = call(s.clients[idx])
		if err == nil {
			s.readOnly[idx].Store(false)
			s.writer.Store(int64(idx))
			return true, nil
		}
		if isReadOnly(err) {
			s.readOnly[idx].Store(true)
			return false, err
		}
		if !failoverWorthy(err) {
			return true, err
		}
		return false, err
	}
	for i := 0; i < len(s.clients); i++ {
		idx := (start + i) % len(s.clients)
		if s.readOnly[idx].Load() {
			continue
		}
		done, err := attempt(idx)
		if done {
			return err
		}
		lastErr = err
	}
	for i := 0; i < len(s.clients); i++ {
		idx := (start + i) % len(s.clients)
		if tried[idx] {
			continue
		}
		done, err := attempt(idx)
		if done {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("sac client: no endpoint accepted the write (%d tried): %w", len(s.clients), lastErr)
}

// forward runs a value-returning call through walk — s.read or s.write — and
// returns what the endpoint that settled it answered.
func forward[T any](walk func(func(*Client) error) error, call func(*Client) (T, error)) (out T, err error) {
	err = walk(func(c *Client) (e error) {
		out, e = call(c)
		return e
	})
	return out, err
}

// Query runs one SAC query on any endpoint (round-robin with failover).
func (s *Set) Query(ctx context.Context, q Query) (*Result, error) {
	return forward(s.read, func(c *Client) (*Result, error) { return c.Query(ctx, q) })
}

// Batch answers many queries on any endpoint (round-robin with failover).
func (s *Set) Batch(ctx context.Context, queries []BatchQuery, opt *BatchOptions) ([]BatchItem, error) {
	return forward(s.read, func(c *Client) ([]BatchItem, error) { return c.Batch(ctx, queries, opt) })
}

// Vertex fetches one vertex from any endpoint (round-robin with failover).
func (s *Set) Vertex(ctx context.Context, id int64) (*Vertex, error) {
	return forward(s.read, func(c *Client) (*Vertex, error) { return c.Vertex(ctx, id) })
}

// Algorithms fetches the registry from any endpoint.
func (s *Set) Algorithms(ctx context.Context) ([]AlgoInfo, error) {
	return forward(s.read, func(c *Client) ([]AlgoInfo, error) { return c.Algorithms(ctx) })
}

// CheckIn moves vertex v through whichever endpoint accepts writes.
func (s *Set) CheckIn(ctx context.Context, v int64, x, y float64) error {
	return s.write(func(c *Client) error { return c.CheckIn(ctx, v, x, y) })
}

// Edge mutates one friendship edge through whichever endpoint accepts
// writes.
func (s *Set) Edge(ctx context.Context, u, v int64, insert bool) (*EdgeResult, error) {
	return forward(s.write, func(c *Client) (*EdgeResult, error) { return c.Edge(ctx, u, v, insert) })
}
