package client_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"sacsearch/client"
	"sacsearch/internal/wire"
)

// scriptedSSE serves GET /v1/subscribe from a per-connection script, so the
// reconnect/resume machinery can be exercised deterministically — real
// servers cut connections at uncontrollable points.
type scriptedSSE struct {
	t     *testing.T
	conns atomic.Int32
	serve func(conn int, w http.ResponseWriter, r *http.Request)
}

func (s *scriptedSSE) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.serve(int(s.conns.Add(1)), w, r)
}

func sseEvent(w http.ResponseWriter, id int, event, data string) {
	w.Header().Set("Content-Type", "text/event-stream")
	fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", id, event, data)
	w.(http.Flusher).Flush()
}

func collectEvents(t *testing.T, sub *client.Subscription, n int) []client.SubEvent {
	t.Helper()
	var out []client.SubEvent
	deadline := time.After(10 * time.Second)
	for len(out) < n {
		select {
		case ev, ok := <-sub.Events:
			if !ok {
				return out
			}
			out = append(out, ev)
		case <-deadline:
			t.Fatalf("timed out: %d/%d events (got %+v)", len(out), n, out)
		}
	}
	return out
}

func TestSubscribeReconnectResumes(t *testing.T) {
	handler := &scriptedSSE{t: t}
	handler.serve = func(conn int, w http.ResponseWriter, r *http.Request) {
		switch conn {
		case 1:
			if r.Header.Get("Last-Event-ID") != "" {
				t.Error("first connection must not carry Last-Event-ID")
			}
			sseEvent(w, 1, "init", `{"sub":"s1","seq":1,"members":[1,2,3],"hash":"a"}`)
			// Connection dies without a bye: the client must reconnect.
		case 2:
			if got := r.Header.Get("Last-Event-ID"); got != "1" {
				t.Errorf("reconnect Last-Event-ID = %q, want 1", got)
			}
			sseEvent(w, 2, "delta", `{"sub":"s1","seq":2,"joined":[4],"hash":"b"}`)
			sseEvent(w, 3, "bye", `{"sub":"s1","reason":"test over"}`)
		default:
			t.Errorf("unexpected connection %d", conn)
		}
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := c.Subscribe(t.Context(), client.Query{Q: 0, K: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	evs := collectEvents(t, sub, 3)
	if evs[0].Kind != "init" || evs[1].Kind != "delta" || evs[2].Kind != "bye" {
		t.Fatalf("kinds = %s/%s/%s", evs[0].Kind, evs[1].Kind, evs[2].Kind)
	}
	if evs[1].Joined[0] != 4 {
		t.Fatalf("delta joined = %v", evs[1].Joined)
	}
	if sub.ID() != "s1" {
		t.Errorf("id = %q, want the server-assigned s1", sub.ID())
	}
	if _, ok := <-sub.Events; ok {
		t.Fatal("Events still open after bye")
	}
	if !errors.Is(sub.Err(), client.ErrSubscriptionClosed) {
		t.Fatalf("Err = %v, want ErrSubscriptionClosed", sub.Err())
	}
}

func TestSubscribeExpiredResumeRestartsFresh(t *testing.T) {
	handler := &scriptedSSE{t: t}
	handler.serve = func(conn int, w http.ResponseWriter, r *http.Request) {
		switch conn {
		case 1:
			sseEvent(w, 1, "init", `{"sub":"s1","seq":1,"members":[1],"hash":"a"}`)
		case 2:
			// Resume state gone: the wire contract's 404.
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusNotFound)
			json.NewEncoder(w).Encode(wire.Error{
				Error: "unknown subscription", Code: wire.CodeUnknownSubscription, Field: "id",
			})
		case 3:
			if got := r.Header.Get("Last-Event-ID"); got != "" {
				t.Errorf("fresh restart still carried Last-Event-ID %q", got)
			}
			sseEvent(w, 1, "init", `{"sub":"s1","seq":1,"members":[1,2],"hash":"b"}`)
			sseEvent(w, 2, "bye", `{"sub":"s1","reason":"done"}`)
		default:
			t.Errorf("unexpected connection %d", conn)
		}
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := c.Subscribe(t.Context(), client.Query{Q: 0, K: 3}, &client.SubscribeOptions{ID: "s1"})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	evs := collectEvents(t, sub, 3)
	if evs[0].Kind != "init" || evs[1].Kind != "init" || evs[2].Kind != "bye" {
		t.Fatalf("kinds = %s/%s/%s, want init/init/bye", evs[0].Kind, evs[1].Kind, evs[2].Kind)
	}
	if len(evs[1].Members) != 2 {
		t.Fatalf("fresh init members = %v", evs[1].Members)
	}
}

func TestSubscribeTerminalRejection(t *testing.T) {
	handler := &scriptedSSE{t: t}
	handler.serve = func(conn int, w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(wire.Error{
			Error: "k out of range", Code: "invalid_query", Field: "k",
		})
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	// The first dial is synchronous, so validation failures surface at the
	// call site instead of on the channel.
	_, err = c.Subscribe(t.Context(), client.Query{Q: 0, K: -1}, nil)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Code != "invalid_query" {
		t.Fatalf("Subscribe error = %v, want invalid_query APIError", err)
	}
}
