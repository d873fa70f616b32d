package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"sacsearch/internal/wire"
)

// Standing queries: Subscribe registers a (q, k, algo) standing query on
// the server and returns a channel of community events — an init with the
// full membership, then deltas as the graph churns. The subscription
// reconnects automatically with Last-Event-ID resume until the context is
// canceled, Close is called, or the server says goodbye.

// ErrSubscriptionClosed is returned by Subscription.Err after the server
// ended the stream with a terminal bye event (drain/shutdown).
var ErrSubscriptionClosed = errors.New("sac client: subscription closed by server")

// SubEvent is one standing-query event (declared in internal/wire): Kind is
// "init" (Members carries the full community), "delta" (Joined/Left carry the
// change) or "bye" (terminal; the stream ends); Hash fingerprints the full
// state after the event, so replaying deltas over the init must reproduce it.
type SubEvent = wire.SubEvent

// SubscribeOptions tunes Subscribe.
type SubscribeOptions struct {
	// ID pins the subscription id (resumable across client restarts);
	// empty lets the server assign one.
	ID string
	// Buffer is the event channel's capacity (default 16). The server
	// sheds consumers that fall a server-side buffer behind; a shed stream
	// resumes transparently.
	Buffer int
}

// Subscription is a live standing query.
type Subscription struct {
	// Events delivers the stream in order. It closes when the subscription
	// ends; check Err for why.
	Events <-chan SubEvent

	id     string
	events chan SubEvent
	cancel context.CancelFunc
	done   chan struct{}
	err    error // written once before done closes
}

// ID returns the subscription id (server-assigned when not pinned).
func (s *Subscription) ID() string { return s.id }

// Err reports why Events closed: nil while live or after Close/context
// cancellation, ErrSubscriptionClosed after a server bye, or the terminal
// failure. Valid after Events closes.
func (s *Subscription) Err() error {
	select {
	case <-s.done:
		return s.err
	default:
		return nil
	}
}

// Close ends the subscription and waits for its goroutine. The server-side
// registration stays resumable (by pinned ID) until its resume TTL lapses.
func (s *Subscription) Close() {
	s.cancel()
	<-s.done
}

// Subscribe opens a standing query. The first connection is made
// synchronously so registration errors (validation, limits) surface here;
// afterwards the subscription re-dials on its own with jittered backoff,
// resuming via Last-Event-ID. A resume the server no longer recognizes
// (404 unknown_subscription) restarts fresh — the stream then carries a new
// init frame. A nil opt takes the defaults.
func (c *Client) Subscribe(ctx context.Context, q Query, opt *SubscribeOptions) (*Subscription, error) {
	var o SubscribeOptions
	if opt != nil {
		o = *opt
	}
	if o.Buffer <= 0 {
		o.Buffer = 16
	}
	sctx, cancel := context.WithCancel(ctx)
	resp, err := c.dialSubscribe(sctx, q, o.ID, 0, false)
	if err != nil {
		cancel()
		return nil, err
	}
	events := make(chan SubEvent, o.Buffer)
	sub := &Subscription{
		Events: events,
		id:     o.ID,
		events: events,
		cancel: cancel,
		done:   make(chan struct{}),
	}
	go sub.run(sctx, c, q, resp)
	return sub, nil
}

// run pumps one connection after another until a terminal condition.
func (s *Subscription) run(ctx context.Context, c *Client, q Query, resp *http.Response) {
	defer close(s.done)
	defer close(s.events)
	defer s.cancel()
	var lastID uint64
	var hasLast bool
	backoff := 100 * time.Millisecond
	for {
		bye, got := pumpSSE(ctx, resp, s.events, func(ev *SubEvent, kind string, id uint64, hasID bool) {
			if ev.Sub != "" {
				s.id = ev.Sub
			}
			ev.Kind, ev.Sub = kind, s.id
			if hasID {
				lastID, hasLast = id, true
			}
		})
		if bye {
			s.err = ErrSubscriptionClosed
			return
		}
		if got {
			backoff = 100 * time.Millisecond // progress: reset the backoff
		}
		// Reconnect until the context ends or the server rejects us for good.
		for {
			select {
			case <-ctx.Done():
				return
			case <-time.After(jitter(backoff)):
			}
			if backoff < 5*time.Second {
				backoff *= 2
			}
			var err error
			resp, err = c.dialSubscribe(ctx, q, s.id, lastID, hasLast)
			if err == nil {
				break
			}
			var apiErr *APIError
			if errors.As(err, &apiErr) {
				if apiErr.Code == wire.CodeUnknownSubscription {
					// Resume state expired server-side: start fresh and let
					// the new init frame resynchronize the consumer.
					hasLast, lastID = false, 0
					continue
				}
				if apiErr.Status >= 400 && apiErr.Status < 500 && apiErr.Status != http.StatusTooManyRequests {
					s.err = err
					return
				}
			}
			if ctx.Err() != nil {
				return
			}
		}
	}
}

// pumpSSE is the one SSE read loop: until the connection ends or ctx fires
// (closing the body unblocks the read), it skips heartbeats, decodes each
// frame's JSON payload into an E (a payload that does not decode is skipped),
// lets fill complete the event from the frame's event name and id, and sends
// it on out. It reports whether the stream ended on a terminal bye, and
// whether anything was delivered.
func pumpSSE[E any](ctx context.Context, resp *http.Response, out chan<- E, fill func(ev *E, kind string, id uint64, hasID bool)) (bye, got bool) {
	defer resp.Body.Close()
	stop := context.AfterFunc(ctx, func() { resp.Body.Close() })
	defer stop()
	br := bufio.NewReader(resp.Body)
	for {
		frame, err := readSSEFrame(br)
		if err != nil {
			return false, got
		}
		if frame.event == "" && frame.data == nil {
			continue // comment heartbeat
		}
		var ev E
		if json.Unmarshal(frame.data, &ev) != nil {
			continue
		}
		id, err := strconv.ParseUint(frame.id, 10, 64)
		fill(&ev, frame.event, id, err == nil)
		select {
		case out <- ev:
		case <-ctx.Done():
			return false, got
		}
		got = true
		if frame.event == "bye" {
			return true, got
		}
	}
}

// dialSubscribe opens one GET /v1/subscribe connection; a non-200 response
// is consumed into an *APIError.
func (c *Client) dialSubscribe(ctx context.Context, q Query, id string, lastID uint64, hasLast bool) (*http.Response, error) {
	vals := q.Values()
	if id != "" {
		vals.Set("id", id)
	}
	return c.dialSSE(ctx, "/v1/subscribe", vals, lastID, hasLast)
}

// dialSSE opens one streaming GET, decoding non-200 responses into
// *APIError like every other call.
func (c *Client) dialSSE(ctx context.Context, path string, query url.Values, lastID uint64, hasLast bool) (*http.Response, error) {
	u := c.base.JoinPath(path)
	u.RawQuery = query.Encode()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u.String(), nil)
	if err != nil {
		return nil, fmt.Errorf("sac client: building request: %w", err)
	}
	req.Header.Set("Accept", "text/event-stream")
	if hasLast {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(lastID, 10))
	}
	if id, _ := ctx.Value(requestIDCtxKey{}).(string); id != "" {
		req.Header.Set("X-Request-Id", id)
	}
	// Streams are long-lived: bypass the default client's global timeout
	// but keep its transport (connection reuse, proxies, test doubles).
	hc := &http.Client{Transport: c.hc.Transport}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("sac client: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		apiErr, cerr := consume(resp, nil)
		if cerr != nil {
			return nil, cerr
		}
		return nil, apiErr
	}
	return resp, nil
}

// sseFrame is one parsed SSE frame; a zero frame is a comment/heartbeat.
type sseFrame struct {
	id    string
	event string
	data  []byte
}

// readSSEFrame reads lines up to one blank-line frame boundary.
func readSSEFrame(br *bufio.Reader) (sseFrame, error) {
	var f sseFrame
	started := false
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return f, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			if started {
				return f, nil
			}
			continue
		}
		if line[0] == ':' {
			started = true // heartbeat comment: flush as an empty frame
			continue
		}
		name, val, _ := bytes.Cut(line, []byte(":"))
		val = bytes.TrimPrefix(val, []byte(" "))
		started = true
		switch string(name) {
		case "id":
			f.id = string(val)
		case "event":
			f.event = string(val)
		case "data":
			f.data = append(f.data, val...)
		}
	}
}

// --- shard watch (router-facing) -------------------------------------------

// WatchEvent is one frame of a shard's publication firehose
// (GET /v1/shard/watch; declared in internal/wire): the vertices checked in
// and edges changed by one published snapshot. Resync means the change history
// is unknown and every derived answer must be recomputed. Bye means the shard
// is draining.
type WatchEvent = wire.WatchEvent

// WatchStream is one live shard-watch connection. It does not reconnect —
// the consumer (the router) owns endpoint rotation and resume.
type WatchStream struct {
	// Events closes when the connection ends (EOF, cancellation, or a
	// terminal bye, delivered as the last event).
	Events <-chan WatchEvent
	cancel context.CancelFunc
	done   chan struct{}
}

// Close tears the connection down and waits for the reader.
func (w *WatchStream) Close() {
	w.cancel()
	<-w.done
}

// ShardWatch opens the shard's publication firehose, resuming after
// lastID when hasLast is set (the server replays the gap, or a resync
// frame when it cannot).
func (c *Client) ShardWatch(ctx context.Context, lastID uint64, hasLast bool) (*WatchStream, error) {
	wctx, cancel := context.WithCancel(ctx)
	resp, err := c.dialSSE(wctx, "/v1/shard/watch", nil, lastID, hasLast)
	if err != nil {
		cancel()
		return nil, err
	}
	events := make(chan WatchEvent, 64)
	ws := &WatchStream{Events: events, cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(ws.done)
		defer close(events)
		defer cancel()
		pumpSSE(wctx, resp, events, func(ev *WatchEvent, kind string, id uint64, hasID bool) {
			ev.Bye = kind == "bye"
			if hasID {
				ev.Seq = id
			}
		})
	}()
	return ws, nil
}
