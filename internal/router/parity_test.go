package router

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sacsearch/client"
	"sacsearch/internal/server"
	"sacsearch/internal/telemetry"
	"sacsearch/internal/wire"
)

// reply is what a client can observe of one response beyond its payload:
// the part of the contract the shared HTTP layer owns.
type reply struct {
	status     int
	env        wire.Error
	requestID  string
	traceSpan  string
	retryAfter string
}

func do(t *testing.T, method, url, body string, hdr map[string]string) reply {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rp := reply{
		status:     resp.StatusCode,
		requestID:  resp.Header.Get("X-Request-Id"),
		traceSpan:  resp.Header.Get("X-Trace-Span"),
		retryAfter: resp.Header.Get("Retry-After"),
	}
	raw, _ := io.ReadAll(resp.Body)
	_ = json.Unmarshal(raw, &rp.env) // a mux-level 404/405 has no envelope
	return rp
}

// TestContractParity drives the same bad requests through a single server
// and a router over the same graph and requires the same observable
// contract from both: status, envelope code and field, the echoed request
// id, a trace span, Retry-After. One HTTP layer serves both front-ends, so
// the two cannot drift.
func TestContractParity(t *testing.T) {
	g := testGraph(200, 900, 17)
	tp := newTopology(t, g, 2)
	cases := []struct {
		name, method, path, body string
		lastEventID              string
		status                   int
		code, field              string
	}{
		{name: "malformed json", method: "POST", path: "/v1/query", body: `{"q":`,
			status: 400, code: wire.CodeInvalidJSON},
		{name: "oversized body", method: "POST", path: "/v1/query",
			body:   `{"q":0,"k":3,"algo":"` + strings.Repeat("a", 1<<20) + `"}`,
			status: 413, code: wire.CodeBodyTooLarge},
		{name: "unknown algorithm", method: "POST", path: "/v1/query", body: `{"q":0,"k":3,"algo":"nope"}`,
			status: 400, code: "unknown_algorithm", field: "algo"},
		{name: "no community", method: "POST", path: "/v1/query", body: `{"q":7,"k":40}`,
			status: 404, code: wire.CodeNoCommunity},
		{name: "empty batch", method: "POST", path: "/v1/batch", body: `{"queries":[]}`,
			status: 400, code: "invalid_query", field: "queries"},
		{name: "malformed vertex id", method: "GET", path: "/v1/vertex/abc",
			status: 400, code: wire.CodeInvalidArgument, field: "id"},
		{name: "unknown vertex", method: "GET", path: "/v1/vertex/999999",
			status: 404, code: wire.CodeUnknownVertex, field: "id"},
		{name: "checkin unknown vertex", method: "POST", path: "/v1/checkin", body: `{"v":999999,"x":0,"y":0}`,
			status: 404, code: wire.CodeUnknownVertex, field: "v"},
		{name: "edge bad op", method: "POST", path: "/v1/edge", body: `{"u":0,"v":1,"op":"flip"}`,
			status: 400, code: wire.CodeInvalidArgument, field: "op"},
		{name: "subscribe missing k", method: "GET", path: "/v1/subscribe?q=0",
			status: 400, code: "invalid_query", field: "k"},
		{name: "subscribe unknown algorithm", method: "GET", path: "/v1/subscribe?q=0&k=3&algo=nope",
			status: 400, code: "unknown_algorithm", field: "algo"},
		{name: "subscribe malformed id", method: "GET", path: "/v1/subscribe?q=0&k=3&id=no%20spaces",
			status: 400, code: wire.CodeInvalidArgument, field: "id"},
		{name: "subscribe resume of unknown id", method: "GET", path: "/v1/subscribe?q=0&k=3&id=ghost",
			lastEventID: "5", status: 404, code: wire.CodeUnknownSubscription, field: "id"},
		{name: "wrong method", method: "GET", path: "/v1/query", status: 405, code: wire.CodeUnknownRoute},
		{name: "no such route", method: "GET", path: "/v1/nope", status: 404, code: wire.CodeUnknownRoute},
		{name: "method no route takes", method: "DELETE", path: "/v1/query", status: 405, code: wire.CodeUnknownRoute},
		{name: "removed shard route", method: "POST", path: "/v1/shard/range", body: `{}`, status: 404, code: wire.CodeUnknownRoute},
	}
	check := func(t *testing.T, method, path, body, lastEventID string, status int, code, field, retryAfter string) {
		t.Helper()
		hdr := map[string]string{"X-Request-Id": "parity-1"}
		if lastEventID != "" {
			hdr["Last-Event-ID"] = lastEventID
		}
		for tier, base := range map[string]string{"server": tp.single.URL, "router": tp.router.URL} {
			got := do(t, method, base+path, body, hdr)
			if got.status != status || got.env.Code != code || got.env.Field != field {
				t.Errorf("%s: %d code=%q field=%q, want %d code=%q field=%q",
					tier, got.status, got.env.Code, got.env.Field, status, code, field)
			}
			if got.requestID != "parity-1" || (code != "" && got.env.RequestID != "parity-1") {
				t.Errorf("%s: request id header %q envelope %q, want the caller's parity-1",
					tier, got.requestID, got.env.RequestID)
			}
			if got.traceSpan == "" {
				t.Errorf("%s: no X-Trace-Span", tier)
			}
			if got.retryAfter != retryAfter {
				t.Errorf("%s: Retry-After %q, want %q", tier, got.retryAfter, retryAfter)
			}
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			check(t, tc.method, tc.path, tc.body, tc.lastEventID, tc.status, tc.code, tc.field, "")
		})
	}

	// A request id that is not short and plain is replaced, by an id naming
	// the tier that minted it — the one deliberate difference.
	for base, prefix := range map[string]string{tp.single.URL: "req-", tp.router.URL: "rtr-"} {
		got := do(t, "GET", base+"/v1/vertex/abc", "", map[string]string{"X-Request-Id": "no spaces"})
		if !strings.HasPrefix(got.requestID, prefix) || got.env.RequestID != got.requestID {
			t.Errorf("replaced request id: header %q envelope %q, want prefix %q", got.requestID, got.env.RequestID, prefix)
		}
	}

	// Draining: both refuse new subscriptions the same retryable way.
	tp.single.Config.Handler.(*server.Server).DrainSubscriptions()
	tp.rt.DrainSubscriptions()
	t.Run("subscribe while draining", func(t *testing.T) {
		check(t, "GET", "/v1/subscribe?q=0&k=3", "", "", 503, wire.CodeNotReady, "", "1")
	})
}

// lockedBuffer is a log sink safe for concurrent handlers.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// watchAttached is a router transport counting the /v1/shard/watch streams
// a shard has answered: by then the shard's handler has attached its feed
// stream and is serving it.
type watchAttached struct{ n atomic.Int32 }

func (w *watchAttached) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err == nil && r.URL.Path == "/v1/shard/watch" && resp.StatusCode == http.StatusOK {
		w.n.Add(1)
	}
	return resp, err
}

// TestStreamsNotLoggedSlow: with a slow-request threshold every request
// exceeds, ordinary requests are logged slow under their own route label,
// but SSE streams — /v1/subscribe on a server and on a router, and the
// /v1/shard/watch feeds the router holds open on its shards — never are: a
// stream's lifetime is its consumer's choice, not a latency.
func TestStreamsNotLoggedSlow(t *testing.T) {
	var serverLog, routerLog lockedBuffer
	finished := make(chan string, 64) // root span names, as requests finish
	hook := func(sp *telemetry.Span) {
		select {
		case finished <- sp.Name:
		default:
		}
	}
	g := testGraph(200, 900, 17)
	var watches watchAttached
	tp := newTopologyWith(t, g, 2,
		server.Config{SlowQueryThreshold: time.Nanosecond, TraceHook: hook,
			Logger: slog.New(slog.NewTextHandler(&serverLog, nil))},
		Config{SlowQueryThreshold: time.Nanosecond, TraceHook: hook,
			Logger:        slog.New(slog.NewTextHandler(&routerLog, nil)),
			ClientOptions: []client.Option{client.WithHTTPClient(&http.Client{Transport: &watches})}})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, base := range []string{tp.single.URL, tp.router.URL} {
		req, _ := http.NewRequestWithContext(ctx, "GET", base+"/v1/subscribe?q=3&k=3", nil)
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != "text/event-stream" {
			t.Fatalf("subscribe on %s: %d %q", base, resp.StatusCode, resp.Header.Get("Content-Type"))
		}
		br := bufio.NewReader(resp.Body)
		for { // wait for the init frame, so the stream has demonstrably lived
			line, err := br.ReadString('\n')
			if err != nil {
				t.Fatalf("reading init on %s: %v", base, err)
			}
			if strings.HasPrefix(line, "event: init") {
				break
			}
		}
	}
	// Control: a non-streaming request under the same threshold is logged.
	for _, base := range []string{tp.single.URL, tp.router.URL} {
		do(t, "GET", base+"/v1/algorithms", "", nil)
	}
	// The router starts its shard watchers in the background on the first
	// registration; a drain that beats one leaves its shard no stream to end.
	for deadline := time.Now().Add(10 * time.Second); watches.n.Load() < 2; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of 2 shard-watch streams attached", watches.n.Load())
		}
	}
	// End both subscription streams and the router's two shard-watch streams,
	// and wait until all four handlers have run their middleware epilogue.
	cancel()
	tp.rt.DrainSubscriptions()
	streams := 0
	for deadline := time.After(10 * time.Second); streams < 4; {
		select {
		case name := <-finished:
			// "GET other" is what both stream routes were labelled before
			// they had labels of their own.
			if name == "GET /v1/subscribe" || name == "GET /v1/shard/watch" || name == "GET other" {
				streams++
			}
		case <-deadline:
			t.Fatalf("only %d of 4 stream handlers finished", streams)
		}
	}
	for tier, log := range map[string]string{"server": serverLog.String(), "router": routerLog.String()} {
		if !strings.Contains(log, `msg="slow request"`) || !strings.Contains(log, "route=/v1/algorithms") {
			t.Errorf("%s: the slow non-streaming request was not logged:\n%s", tier, log)
		}
		for _, line := range strings.Split(log, "\n") {
			if strings.Contains(line, `msg="slow request"`) &&
				(strings.Contains(line, "subscribe") || strings.Contains(line, "watch") || strings.Contains(line, "route=other")) {
				t.Errorf("%s logged a stream as a slow request: %s", tier, line)
			}
		}
	}
}

// TestRoutedDrainFlushesPendingChange: a change the router has noted but not
// yet dispatched when DrainSubscriptions is called must still reach the
// stream as a delta, ahead of the terminal bye. The shards' feeds are closed
// first so that nothing but the injected notification can trigger the
// evaluation.
func TestRoutedDrainFlushesPendingChange(t *testing.T) {
	g := testGraph(200, 900, 17)
	tp := newTopology(t, g, 2)
	sub, err := tp.routerCl.Subscribe(t.Context(), client.Query{Q: 3, K: 3, Algo: "appfast"},
		&client.SubscribeOptions{ID: "flushed"})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	var init client.SubEvent
	select {
	case init = <-sub.Events:
	case <-time.After(15 * time.Second):
		t.Fatal("no init")
	}
	if init.Kind != "init" || len(init.Members) < 2 {
		t.Fatalf("unexpected first event %+v", init)
	}
	for _, sh := range tp.shards {
		sh.Config.Handler.(*server.Server).DrainSubscriptions()
	}
	// Move a member (not q) far away: the community must change, and with
	// the feeds closed the router does not hear about it.
	mover := init.Members[0]
	if mover == 3 {
		mover = init.Members[1]
	}
	if err := tp.routerCl.CheckIn(t.Context(), mover, 0.999, 0.999); err != nil {
		t.Fatal(err)
	}
	tp.rt.subs.note(tp.m.OwnerOf(3), client.WatchEvent{Resync: true})
	tp.rt.DrainSubscriptions()
	sawDelta := false
	for deadline := time.After(10 * time.Second); ; {
		select {
		case ev, ok := <-sub.Events:
			if !ok {
				t.Fatalf("stream closed without bye: %v", sub.Err())
			}
			switch ev.Kind {
			case "delta":
				sawDelta = true
			case "bye":
				if !sawDelta {
					t.Fatal("bye arrived without the pending change's delta")
				}
				return
			}
		case <-deadline:
			t.Fatal("no bye after router drain")
		}
	}
}

// TestTimeoutMillisBounded pins that a client-chosen timeoutMillis too large
// for a time.Duration is refused, on the server, on the router and on a
// shard's /v1/shard/search alike, rather than multiplied out and wrapped:
// into a 448 µs deadline (answering 503 deadline_exceeded), a negative one,
// or zero (no per-query deadline at all).
func TestTimeoutMillisBounded(t *testing.T) {
	g := testGraph(200, 900, 17)
	tp := newTopology(t, g, 2)
	tiers := map[string]string{
		"server": tp.single.URL + "/v1/query",
		"router": tp.router.URL + "/v1/query",
		"shard":  tp.shards[0].URL + "/v1/shard/search",
	}
	for _, millis := range []string{
		"18446744073710",      // ×1e6 wraps to 448 µs
		"9223372036855",       // wraps negative
		"4611686018427387904", // wraps to exactly 0
		"-9223372036855",      // wraps positive
	} {
		for tier, url := range tiers {
			got := do(t, "POST", url, `{"q":0,"k":3,"timeoutMillis":`+millis+`}`, nil)
			if got.status != 400 || got.env.Code != "invalid_query" || got.env.Field != "timeoutMillis" {
				t.Errorf("%s timeoutMillis=%s: %d code=%q field=%q, want 400 invalid_query on timeoutMillis",
					tier, millis, got.status, got.env.Code, got.env.Field)
			}
		}
	}
	// The largest representable value is a (very long) timeout, not an error.
	for tier, url := range tiers {
		if got := do(t, "POST", url, `{"q":0,"k":3,"timeoutMillis":9223372036854}`, nil); got.status != 200 {
			t.Errorf("%s timeoutMillis=9223372036854: status %d (%s), want 200", tier, got.status, got.env.Error)
		}
	}
}
