package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
	"sacsearch/internal/replica"
	"sacsearch/internal/snapshot"
	"sacsearch/internal/store"
	"sacsearch/internal/telemetry"
	"sacsearch/internal/wire"
)

var discardLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

// lockedBuffer is an io.Writer safe for the concurrent writes a slog
// handler may issue while the test goroutine reads the captured output.
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

// unmarshalErr decodes an error envelope, failing the test on bad JSON.
func unmarshalErr(t *testing.T, body []byte, into *wire.Error) {
	t.Helper()
	if err := json.Unmarshal(body, into); err != nil {
		t.Fatalf("decoding error envelope %q: %v", body, err)
	}
}

// replicaHealth is the health shape the replica-mode assertions care about.
type replicaHealth struct {
	Status      string                  `json:"status"`
	Role        string                  `json:"role"`
	Epoch       uint64                  `json:"epoch"`
	FencedBy    uint64                  `json:"fencedBy"`
	Replication *replica.FollowerStatus `json:"replication"`
	Followers   *int                    `json:"followers"`
	MinAckedSeq *uint64                 `json:"minAckedSeq"`
}

// waitHTTP polls cond until it holds or the deadline passes.
func waitHTTP(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// startReplicatedPair boots a durable leader server, a WAL shipper, and a
// replica server following it over a real TCP connection — the two-process
// topology, in-process.
func startReplicatedPair(t *testing.T, cfg Config) (leader, rep *httptest.Server, st *store.Store, sh *replica.Shipper) {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{Init: testGraph(), CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sh = replica.NewShipper(st, ln, replica.ShipperOptions{
		Heartbeat: 20 * time.Millisecond, Poll: time.Millisecond, Logger: discardLogger,
	})
	t.Cleanup(sh.Close)

	srvL := NewWithStore("test", st, Config{Logger: discardLogger, ShipperStatus: sh.Status})
	t.Cleanup(srvL.Close)
	leader = httptest.NewServer(srvL)
	t.Cleanup(leader.Close)

	f, err := replica.NewFollower(replica.FollowerOptions{
		Leader: sh.Addr().String(), BackoffMin: 5 * time.Millisecond,
		BackoffMax: 100 * time.Millisecond, Logger: discardLogger,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Logger == nil {
		cfg.Logger = discardLogger
	}
	srvR := NewReplica("test", f, cfg)
	t.Cleanup(srvR.Close)
	rep = httptest.NewServer(srvR)
	t.Cleanup(rep.Close)
	return leader, rep, st, sh
}

// TestReplicaServesReplicatedReads drives the full read path of a replica:
// ready flips to 200 after the initial sync, a write on the leader becomes
// visible through the replica's /v1 surface, writes on the replica are
// refused with 503 read_only, and health reports role/epoch/lag.
func TestReplicaServesReplicatedReads(t *testing.T) {
	leader, rep, st, _ := startReplicatedPair(t, Config{StalenessBound: time.Minute})

	waitHTTP(t, 10*time.Second, "replica readiness", func() bool {
		return getJSON(t, rep.URL+"/v1/ready", nil).StatusCode == http.StatusOK
	})

	// A write on the leader must become readable on the replica.
	resp, body := postJSON(t, leader.URL+"/v1/checkin", wire.CheckinRequest{V: 3, X: 0.25, Y: 0.75})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("leader checkin: %d %s", resp.StatusCode, body)
	}
	waitHTTP(t, 10*time.Second, "write to replicate", func() bool {
		var v struct{ X, Y float64 }
		if getJSON(t, rep.URL+"/v1/vertex/3", &v).StatusCode != http.StatusOK {
			return false
		}
		return v.X == 0.25 && v.Y == 0.75
	})

	// Queries answer from the replicated state.
	resp, body = postJSON(t, rep.URL+"/v1/query", wire.Query{Q: 1, K: 4, Algo: "exact+"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replica query: %d %s", resp.StatusCode, body)
	}

	// Writes on the replica are refused before decoding.
	for _, route := range []string{"/v1/checkin", "/v1/edge"} {
		resp, body = postJSON(t, rep.URL+route, map[string]any{})
		var e wire.Error
		unmarshalErr(t, body, &e)
		if resp.StatusCode != http.StatusServiceUnavailable || e.Code != wire.CodeReadOnly {
			t.Fatalf("replica write on %s: status %d code %q", route, resp.StatusCode, e.Code)
		}
	}

	// Health: replica role, leader's epoch, readonly verdict, lag visible.
	var h replicaHealth
	getJSON(t, rep.URL+"/v1/health", &h)
	if h.Role != "replica" || h.Status != "readonly" || h.Replication == nil {
		t.Fatalf("replica health = %+v", h)
	}
	if h.Epoch != st.Epoch() || !h.Replication.Synced {
		t.Fatalf("replica health epoch %d (leader %d), replication %+v", h.Epoch, st.Epoch(), h.Replication)
	}

	var lh replicaHealth
	getJSON(t, leader.URL+"/v1/health", &lh)
	if lh.Role != "leader" || lh.Status != "ok" || lh.Epoch != st.Epoch() {
		t.Fatalf("leader health = %+v", lh)
	}
	// The leader surfaces outbound replication: the follower session and,
	// once it acks, how far behind the slowest follower is.
	if lh.Followers == nil || *lh.Followers != 1 {
		t.Fatalf("leader health followers = %v, want 1", lh.Followers)
	}
	waitHTTP(t, 10*time.Second, "leader sees the follower fully acked", func() bool {
		var h replicaHealth
		getJSON(t, leader.URL+"/v1/health", &h)
		return h.MinAckedSeq != nil && *h.MinAckedSeq == st.WalLastSeq()
	})
	if getJSON(t, leader.URL+"/v1/ready", nil).StatusCode != http.StatusOK {
		t.Fatal("leader not ready")
	}
}

// TestReplicaShedsStaleReads kills the leader and asserts the replica turns
// degraded and sheds reads with 503 + Retry-After once its staleness bound
// is exceeded — late state is served briefly, stale state never silently.
func TestReplicaShedsStaleReads(t *testing.T) {
	_, rep, _, sh := startReplicatedPair(t, Config{StalenessBound: 150 * time.Millisecond})

	waitHTTP(t, 10*time.Second, "replica readiness", func() bool {
		return getJSON(t, rep.URL+"/v1/ready", nil).StatusCode == http.StatusOK
	})

	sh.Close() // the leader is gone

	waitHTTP(t, 10*time.Second, "degraded health after leader loss", func() bool {
		var h replicaHealth
		getJSON(t, rep.URL+"/v1/health", &h)
		return h.Status == "degraded"
	})
	waitHTTP(t, 10*time.Second, "read shedding past the staleness bound", func() bool {
		resp, body := postJSON(t, rep.URL+"/v1/query", wire.Query{Q: 1, K: 4})
		if resp.StatusCode != http.StatusServiceUnavailable {
			return false
		}
		var e wire.Error
		unmarshalErr(t, body, &e)
		if e.Code != wire.CodeStaleRead {
			t.Fatalf("shed read code = %q, want %q", e.Code, wire.CodeStaleRead)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("shed read missing Retry-After")
		}
		return true
	})

	// Ready stays 200: the node synced once and could serve if the bound
	// were wider — readiness is about initial sync, shedding about lag.
	if getJSON(t, rep.URL+"/v1/ready", nil).StatusCode != http.StatusOK {
		t.Fatal("synced replica reported unready")
	}
}

// TestReplicaNotReadyBeforeSync points a replica at a dead address: ready
// and every read must come back 503 not_ready, while health still answers
// 200 and reports the degradation.
func TestReplicaNotReadyBeforeSync(t *testing.T) {
	// Grab a port that refuses connections: listen, note the address, close.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	f, err := replica.NewFollower(replica.FollowerOptions{
		Leader: addr, BackoffMin: 5 * time.Millisecond,
		BackoffMax: 50 * time.Millisecond, Logger: discardLogger,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewReplica("test", f, Config{Logger: discardLogger})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	readyResp := getJSON(t, ts.URL+"/v1/ready", nil)
	if readyResp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unsynced replica ready status = %d", readyResp.StatusCode)
	}
	if readyResp.Header.Get("Retry-After") == "" {
		t.Fatal("unready response missing Retry-After")
	}
	resp, body := postJSON(t, ts.URL+"/v1/query", wire.Query{Q: 1, K: 4})
	var e wire.Error
	unmarshalErr(t, body, &e)
	if resp.StatusCode != http.StatusServiceUnavailable || e.Code != wire.CodeNotReady {
		t.Fatalf("unsynced replica query: status %d code %q", resp.StatusCode, e.Code)
	}
	var h replicaHealth
	if getJSON(t, ts.URL+"/v1/health", &h).StatusCode != http.StatusOK {
		t.Fatal("health must answer even before the first sync")
	}
	if h.Status != "degraded" || h.Role != "replica" {
		t.Fatalf("pre-sync health = %+v", h)
	}
}

// TestFencedLeaderTurnsReadonly fences a durable leader's store and asserts
// the server-level consequences: writes bounce with 503 read_only, reads
// keep working, and health flips to readonly with the fencing epoch.
func TestFencedLeaderTurnsReadonly(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{Init: testGraph(), CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWithStore("test", st, Config{Logger: discardLogger})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	resp, _ := postJSON(t, ts.URL+"/v1/checkin", wire.CheckinRequest{V: 1, X: 0.5, Y: 0.5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-fence checkin status = %d", resp.StatusCode)
	}
	if err := st.Fence(st.Epoch() + 3); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/checkin", wire.CheckinRequest{V: 1, X: 0.6, Y: 0.6})
	var e wire.Error
	unmarshalErr(t, body, &e)
	if resp.StatusCode != http.StatusServiceUnavailable || e.Code != wire.CodeReadOnly {
		t.Fatalf("fenced checkin: status %d code %q", resp.StatusCode, e.Code)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/edge", wire.EdgeRequest{U: 0, V: 30, Op: "insert"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("fenced edge status = %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/query", wire.Query{Q: 1, K: 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fenced leader refused a read: %d", resp.StatusCode)
	}
	var h replicaHealth
	getJSON(t, ts.URL+"/v1/health", &h)
	if h.Status != "readonly" || h.FencedBy != st.Epoch()+3 {
		t.Fatalf("fenced health = %+v", h)
	}
}

// TestQueuedWriteRefusedByFenceAnswersReadOnly: a write that was already past
// the store's door check when the fence landed is refused where it would be
// logged, and its error — a persist failure caused by the fence — must map to
// the same 503 read_only the door gives, which is what sends client.Set on to
// the new leader ("unavailable" would not). The engine has no door, so
// writing through it after Fence is exactly such a write.
func TestQueuedWriteRefusedByFenceAnswersReadOnly(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{Init: testGraph(), CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWithStore("test", st, Config{Logger: discardLogger})
	t.Cleanup(srv.Close)
	if err := st.Fence(st.Epoch() + 1); err != nil {
		t.Fatal(err)
	}
	before := st.WalLastSeq()
	werr := st.Engine().CheckIn(context.Background(), 1, geom.Point{X: 0.6, Y: 0.6})
	if !errors.Is(werr, store.ErrFenced) || !errors.Is(werr, snapshot.ErrPersist) {
		t.Fatalf("write queued behind a fence: err = %v, want ErrFenced wrapped in ErrPersist", werr)
	}
	if got := st.WalLastSeq(); got != before {
		t.Fatalf("refused write moved the WAL from seq %d to %d", before, got)
	}
	rec := httptest.NewRecorder()
	srv.writeWriteError(rec, httptest.NewRequest("POST", "/v1/checkin", nil), werr)
	var e wire.Error
	unmarshalErr(t, rec.Body.Bytes(), &e)
	if rec.Code != http.StatusServiceUnavailable || e.Code != wire.CodeReadOnly {
		t.Fatalf("refused in-flight write: status %d code %q, want 503 %s", rec.Code, e.Code, wire.CodeReadOnly)
	}
}

// TestPanicRecoveryMiddleware registers a panicking route and asserts the
// client sees a 500 envelope carrying the request id while the stack lands
// in the server log — a handler bug must cost one request, not the process.
func TestPanicRecoveryMiddleware(t *testing.T) {
	var logged lockedBuffer
	g := testGraph()
	srv := NewWithConfig("test", g, Config{
		Logger: slog.New(slog.NewTextHandler(&logged, nil)),
	})
	t.Cleanup(srv.Close)
	srv.mux.HandleFunc("GET /v1/boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	req, err := http.NewRequest("GET", ts.URL+"/v1/boom", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "trace-me-123")
	raw, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Body.Close()
	if raw.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking route status = %d", raw.StatusCode)
	}
	var e wire.Error
	if err := json.NewDecoder(raw.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Code != wire.CodeInternal || e.RequestID != "trace-me-123" {
		t.Fatalf("panic envelope = %+v", e)
	}
	out := logged.String()
	if !strings.Contains(out, "kaboom") || !strings.Contains(out, "trace-me-123") ||
		!strings.Contains(out, "goroutine") {
		t.Fatalf("panic log missing panic value, request id or stack:\n%s", out)
	}

	// The server still serves after the panic.
	if resp := getJSON(t, ts.URL+"/v1/health", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("health after panic = %d", resp.StatusCode)
	}
}

// TestReplicaMemoAcrossResync: a re-sync swaps in a new engine, whose view
// store starts empty, so after it a query the replica had stored is
// searched again on the new state and answers what the leader does.
func TestReplicaMemoAcrossResync(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{Init: testGraph(), CheckpointInterval: -1, SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	opts := replica.ShipperOptions{Heartbeat: 20 * time.Millisecond, Poll: time.Millisecond, Logger: discardLogger}
	sh := replica.NewShipper(st, ln, opts)
	srvL := NewWithStore("test", st, Config{Logger: discardLogger})
	t.Cleanup(srvL.Close)
	t.Cleanup(func() { sh.Close() })
	leader := httptest.NewServer(srvL)
	t.Cleanup(leader.Close)
	f, err := replica.NewFollower(replica.FollowerOptions{
		Leader: sh.Addr().String(), BackoffMin: 5 * time.Millisecond,
		BackoffMax: 50 * time.Millisecond, Logger: discardLogger,
	})
	if err != nil {
		t.Fatal(err)
	}
	srvR := NewReplica("test", f, Config{Logger: discardLogger, StalenessBound: -1, Metrics: telemetry.NewRegistry()})
	t.Cleanup(srvR.Close)
	rep := httptest.NewServer(srvR)
	t.Cleanup(rep.Close)
	waitHTTP(t, 10*time.Second, "initial sync", func() bool { return f.Status().Synced })

	q := wire.Query{Q: 1, K: 3, Algo: "appacc"}
	ask := func(url string) string {
		t.Helper()
		resp, body := postJSON(t, url+"/v1/query", q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %s: %d %s", url, resp.StatusCode, body)
		}
		return masked(body)
	}
	before := ask(rep.URL)
	for range 2 {
		if got := ask(rep.URL); got != before {
			t.Fatalf("a repeat answered\n%s\nthe first\n%s", got, before)
		}
	}
	if hit, _, _ := memoCounts(t, rep.URL); hit != 2 {
		t.Fatalf("memo hits %v before the re-sync, want 2", hit)
	}

	// Partition, move q's community away and truncate the log past the
	// follower, then heal: the follower must re-sync from a snapshot.
	first := f.Engine()
	sh.Close()
	ctx := context.Background()
	for round := range 2 {
		for v := range 6 {
			p := geom.Point{X: 0.9 - 0.01*float64(v+round), Y: 0.1 + 0.01*float64(v)}
			if err := st.CheckIn(ctx, graph.V(v), p); err != nil {
				t.Fatal(err)
			}
		}
		for i := range 100 {
			if err := st.CheckIn(ctx, graph.V(12+i%24), geom.Point{X: 0.5, Y: 0.5 + 0.001*float64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	ln2, err := net.Listen("tcp", sh.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sh2 := replica.NewShipper(st, ln2, opts)
	t.Cleanup(func() { sh2.Close() })
	waitHTTP(t, 10*time.Second, "re-sync", func() bool {
		return f.Engine() != first && f.Status().Synced && f.Status().AppliedSeq == st.WalLastSeq()
	})
	if f.Status().Resyncs < 2 {
		t.Fatalf("the follower resumed the tail (resyncs %d); no re-sync happened", f.Status().Resyncs)
	}

	_, missesBefore, _ := memoCounts(t, rep.URL)
	after := ask(rep.URL)
	if _, misses, _ := memoCounts(t, rep.URL); misses != missesBefore+1 {
		t.Fatal("the first query after the re-sync was not a search")
	}
	if want := ask(leader.URL); after != want {
		t.Fatalf("after the re-sync the replica answers\n%s\nthe leader\n%s", after, want)
	}
	if after == before {
		t.Fatal("the writes did not change the answer; the test shows nothing")
	}
}
