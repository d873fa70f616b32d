package server

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"sacsearch/client"
	"sacsearch/internal/telemetry"
	"sacsearch/internal/wire"
)

// sseFrame is one parsed frame off a raw /v1/subscribe stream.
type sseFrame struct {
	id    uint64
	event string
	data  string
}

// readFrames consumes SSE frames off r until n non-comment frames arrived
// or the deadline passes. r must be the stream's single bufio.Reader —
// constructing a fresh buffered reader per call would lose read-ahead bytes.
func readFrames(t *testing.T, r *bufio.Reader, n int, deadline time.Duration) []sseFrame {
	t.Helper()
	var out []sseFrame
	done := make(chan struct{})
	go func() {
		defer close(done)
		var cur sseFrame
		hasField := false
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				return
			}
			line = strings.TrimRight(line, "\n")
			switch {
			case line == "":
				if hasField {
					out = append(out, cur)
					if len(out) == n {
						return
					}
				}
				cur, hasField = sseFrame{}, false
			case strings.HasPrefix(line, ":"):
				// heartbeat comment
			case strings.HasPrefix(line, "id: "):
				cur.id, _ = strconv.ParseUint(line[4:], 10, 64)
				hasField = true
			case strings.HasPrefix(line, "event: "):
				cur.event = line[7:]
				hasField = true
			case strings.HasPrefix(line, "data: "):
				cur.data = line[6:]
				hasField = true
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(deadline):
		t.Fatalf("timed out waiting for %d SSE frames (got %d)", n, len(out))
	}
	return out
}

// openStream issues a raw GET /v1/subscribe and returns the live response
// plus the stream's single buffered reader.
func openStream(t *testing.T, ctx context.Context, url string, lastEventID string) (*http.Response, *bufio.Reader) {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp, bufio.NewReader(resp.Body)
}

func TestSubscribeStreamAndResume(t *testing.T) {
	ts, _ := newTestServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	url := ts.URL + "/v1/subscribe?q=0&k=3&algo=appfast&id=res1"
	resp, br := openStream(t, ctx, url, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	frames := readFrames(t, br, 1, 5*time.Second)
	if frames[0].event != "init" || frames[0].id != 1 {
		t.Fatalf("first frame = %+v, want init id 1", frames[0])
	}
	if !strings.Contains(frames[0].data, `"members"`) {
		t.Fatalf("init payload missing members: %s", frames[0].data)
	}

	// Moving the query vertex itself forcibly changes the covering circle
	// (q is in every answer), so a delta must arrive on the open stream.
	if r, _ := postJSON(t, ts.URL+"/v1/checkin", map[string]any{"v": 0, "x": 0.9, "y": 0.9}); r.StatusCode != 200 {
		t.Fatalf("checkin: %d", r.StatusCode)
	}
	frames = readFrames(t, br, 1, 5*time.Second)
	if frames[0].event != "delta" || frames[0].id != 2 {
		t.Fatalf("second frame = %+v, want delta id 2", frames[0])
	}
	resp.Body.Close()

	// Resume after the init: the delta replays from the ring, no init resent.
	resp2, br2 := openStream(t, context.Background(), url, "1")
	defer resp2.Body.Close()
	frames = readFrames(t, br2, 1, 5*time.Second)
	if frames[0].event != "delta" || frames[0].id != 2 {
		t.Fatalf("resumed frame = %+v, want the seq-2 delta", frames[0])
	}

	// Resume from the latest id: silence (no replay), the stream just waits.
	resp3, _ := openStream(t, context.Background(), url, "2")
	defer resp3.Body.Close()
}

func TestSubscribeTypedClient(t *testing.T) {
	ts, _ := newTestServer(t)
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sub, err := c.Subscribe(ctx, client.Query{Q: 7, K: 3, Algo: "appinc"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	select {
	case ev := <-sub.Events:
		if ev.Kind != "init" || ev.Q != 7 || ev.K != 3 || ev.Algo != "appinc" {
			t.Fatalf("unexpected init: %+v", ev)
		}
		if len(ev.Members) == 0 {
			t.Fatal("init carried no members for a clique vertex")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no init event")
	}
}

func TestSubscribeErrorEnvelopes(t *testing.T) {
	ts, _ := newTestServer(t)

	// Unknown id + Last-Event-ID: the resume state is gone.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/subscribe?q=0&k=3&id=ghost", nil)
	req.Header.Set("Last-Event-ID", "5")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(body), wire.CodeUnknownSubscription) {
		t.Fatalf("resume of unknown id: %d %s", resp.StatusCode, body)
	}

	// Missing k: the same invalid_query envelope a POST query would get.
	resp, err = http.Get(ts.URL + "/v1/subscribe?q=0")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "invalid_query") {
		t.Fatalf("missing k: %d %s", resp.StatusCode, body)
	}

	// A q too wide for a vertex id is refused as sent, not wrapped into
	// vertex 3 (4294967299 mod 2^32) and served.
	resp, err = http.Get(ts.URL + "/v1/subscribe?q=4294967299&k=3")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		resp.Body.Close()
		t.Fatalf("out-of-range q: status %d, want 400", resp.StatusCode)
	}
	var env wire.Error
	err = json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if err != nil || env.Code != "invalid_query" || env.Field != "q" || !strings.Contains(env.Error, "4294967299") {
		t.Fatalf("out-of-range q: envelope %+v (decode: %v)", env, err)
	}

	// Same id, different query: the id is bound.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	live, lbr := openStream(t, ctx, ts.URL+"/v1/subscribe?q=0&k=3&algo=appfast&id=bound", "")
	defer live.Body.Close()
	readFrames(t, lbr, 1, 5*time.Second)
	resp, err = http.Get(ts.URL + "/v1/subscribe?q=0&k=4&algo=appfast&id=bound")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "different query") {
		t.Fatalf("rebinding id: %d %s", resp.StatusCode, body)
	}
}

func TestSubscribeLimit(t *testing.T) {
	g := testGraph()
	srv := NewWithConfig("test", g, Config{MaxSubscriptions: 1})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	live, lbr := openStream(t, ctx, ts.URL+"/v1/subscribe?q=0&k=3&id=first", "")
	defer live.Body.Close()
	readFrames(t, lbr, 1, 5*time.Second)

	resp, err := http.Get(ts.URL + "/v1/subscribe?q=1&k=3&id=second")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || !strings.Contains(string(body), wire.CodeSubscriptionLimit) {
		t.Fatalf("over limit: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

func TestSubscribeDrainSendsBye(t *testing.T) {
	g := testGraph()
	srv := New("test", g)
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	resp, br := openStream(t, ctx, ts.URL+"/v1/subscribe?q=0&k=3&id=drainme", "")
	defer resp.Body.Close()
	readFrames(t, br, 1, 5*time.Second)

	done := make(chan []sseFrame, 1)
	go func() { done <- readFrames(t, br, 1, 5*time.Second) }()
	srv.DrainSubscriptions()
	select {
	case frames := <-done:
		if frames[0].event != "bye" || !strings.Contains(frames[0].data, "drain") {
			t.Fatalf("drain frame = %+v, want bye", frames[0])
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no bye after drain")
	}
	// The stream must terminate, not hang.
	buf := make([]byte, 256)
	resp.Body.Read(buf)
	if _, err := resp.Body.Read(buf); err == nil {
		t.Log("stream still open after bye; second read should eventually EOF")
	}
}

// TestSubscribeGateOnMetrics pins the gate-effectiveness counter on the
// public /metrics endpoint: far-away movers (a disconnected cluster) must
// show up as sac_subscription_skipped_by_gate_total without a single extra
// evaluation.
func TestSubscribeGateOnMetrics(t *testing.T) {
	g := testGraph()
	reg := telemetry.NewRegistry()
	srv := NewWithConfig("test", g, Config{Metrics: reg})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Vertex 0's k-core component spans cliques 0..2 (bridged by 0-6 and
	// 0-12); cliques 3..5 are disconnected from it.
	resp, br := openStream(t, ctx, ts.URL+"/v1/subscribe?q=0&k=3&algo=appfast&id=gate", "")
	defer resp.Body.Close()
	readFrames(t, br, 1, 5*time.Second)

	evalsBefore := srv.Subscriptions().Hub().Evals().Value()
	for i := 0; i < 10; i++ {
		v := 30 + i%6 // clique 5: never in the watched closure
		if r, _ := postJSON(t, ts.URL+"/v1/checkin", map[string]any{
			"v": v, "x": 0.1 * float64(i), "y": 0.2,
		}); r.StatusCode != 200 {
			t.Fatalf("checkin: %d", r.StatusCode)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		text := string(body)
		if !strings.Contains(text, "sac_subscription_skipped_by_gate_total") {
			t.Fatalf("/metrics does not expose sac_subscription_skipped_by_gate_total:\n%s", text)
		}
		skipped := metricValue(t, text, "sac_subscription_skipped_by_gate_total")
		if skipped >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("skipped_by_gate never grew; /metrics:\n%s", text)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := srv.Subscriptions().Hub().Evals().Value(); got != evalsBefore {
		t.Errorf("far-away moves re-evaluated the standing query (%d -> %d evals)", evalsBefore, got)
	}
}

// metricValue extracts the value of an unlabeled counter/gauge sample from
// Prometheus text exposition.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, name+" ") {
			v, err := strconv.ParseFloat(strings.TrimSpace(line[len(name)+1:]), 64)
			if err != nil {
				t.Fatalf("parse %s sample %q: %v", name, line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}
