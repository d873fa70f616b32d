package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"sacsearch/client"
	"sacsearch/internal/core"
	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
	"sacsearch/internal/server"
)

// testGraph plants spatial cliques (the server test fixture's shape):
// every vertex has a tight community for k up to 4.
func testGraph() *graph.Graph {
	rnd := rand.New(rand.NewSource(7))
	const nc, cs = 6, 6
	b := graph.NewBuilder(nc * cs)
	for c := 0; c < nc; c++ {
		cx, cy := rnd.Float64(), rnd.Float64()
		for i := 0; i < cs; i++ {
			v := graph.V(c*cs + i)
			b.SetLoc(v, geom.Point{
				X: cx + (rnd.Float64()-0.5)*0.05,
				Y: cy + (rnd.Float64()-0.5)*0.05,
			})
			for j := 0; j < i; j++ {
				b.AddEdge(v, graph.V(c*cs+j))
			}
		}
	}
	b.AddEdge(0, 6)
	b.AddEdge(0, 12)
	return b.Build()
}

func newClientServer(t *testing.T) (*client.Client, *graph.Graph) {
	t.Helper()
	g := testGraph()
	srv := server.New("test", g)
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	cl, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return cl, g
}

// TestRoundTripAllRoutes drives every /v1 route through the typed client
// against a real server over httptest.
func TestRoundTripAllRoutes(t *testing.T) {
	cl, g := newClientServer(t)
	ctx := context.Background()

	h, err := cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Dataset != "test" || h.Vertices != g.NumVertices() {
		t.Fatalf("health = %+v", h)
	}
	if _, ok := h.Extra["snapshotSeq"]; !ok {
		t.Fatalf("health extras missing snapshotSeq: %v", h.Extra)
	}

	algos, err := cl.Algorithms(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(algos) != len(core.Algorithms()) {
		t.Fatalf("%d algorithms, want %d", len(algos), len(core.Algorithms()))
	}
	for i, spec := range core.Algorithms() {
		if algos[i].Name != spec.Name || len(algos[i].Params) != len(spec.Params) {
			t.Fatalf("algorithms[%d] = %+v, want %s", i, algos[i], spec.Name)
		}
	}

	vx, err := cl.Vertex(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	if vx.ID != 3 || vx.Degree != g.Degree(3) {
		t.Fatalf("vertex = %+v", vx)
	}

	res, err := cl.Query(ctx, client.Query{Q: 1, K: 4, Algo: "exact+"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Members) == 0 || res.Stats.Algorithm != "exact+" {
		t.Fatalf("query = %+v", res)
	}

	items, err := cl.Batch(ctx, []client.BatchQuery{{Q: 1, K: 4}, {Q: 7, K: 4}},
		&client.BatchOptions{Algo: "appinc", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 || items[0].Error != "" || len(items[0].Members) == 0 {
		t.Fatalf("batch = %+v", items)
	}

	if err := cl.CheckIn(ctx, 3, 0.25, 0.75); err != nil {
		t.Fatal(err)
	}
	moved, err := cl.Vertex(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	if moved.X != 0.25 || moved.Y != 0.75 {
		t.Fatalf("checkin did not move vertex: %+v", moved)
	}

	er, err := cl.Edge(ctx, 0, 7, true)
	if err != nil {
		t.Fatal(err)
	}
	if !er.OK || !er.Changed {
		t.Fatalf("edge insert = %+v", er)
	}
	er, err = cl.Edge(ctx, 0, 7, true) // idempotent repeat
	if err != nil {
		t.Fatal(err)
	}
	if er.Changed {
		t.Fatalf("repeated insert reported a change: %+v", er)
	}
}

// TestAPIErrors maps server failures onto typed errors: codes, fields,
// request ids and the ErrNoCommunity sentinel.
func TestAPIErrors(t *testing.T) {
	cl, _ := newClientServer(t)
	ctx := context.Background()

	_, err := cl.Query(ctx, client.Query{Q: 1, K: 40})
	if !errors.Is(err, client.ErrNoCommunity) {
		t.Fatalf("k=40 err = %v, want ErrNoCommunity", err)
	}

	_, err = cl.Query(ctx, client.Query{Q: 1, K: 4, Algo: "bogus"})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if apiErr.Status != http.StatusBadRequest || apiErr.Code != "unknown_algorithm" ||
		apiErr.Field != "algo" || apiErr.RequestID == "" {
		t.Fatalf("APIError = %+v", apiErr)
	}
	if errors.Is(err, client.ErrNoCommunity) {
		t.Fatal("unknown algorithm matched ErrNoCommunity")
	}

	_, err = cl.Query(ctx, client.Query{Q: 1, K: 4, Algo: "appfast", Theta: client.Float(0.5)})
	if !errors.As(err, &apiErr) || apiErr.Code != "invalid_param" || apiErr.Field != "theta" {
		t.Fatalf("extraneous theta err = %v", err)
	}

	_, err = cl.Vertex(ctx, 99999)
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound || apiErr.Code != "unknown_vertex" {
		t.Fatalf("unknown vertex err = %v", err)
	}
}

// TestRetryOn503 verifies the retry loop: two 503s then success, and
// permanent 503 exhausting the budget.
func TestRetryOn503(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"draining","code":"unavailable"}`))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"status":"ok","dataset":"flaky","vertices":1,"edges":0}`))
	}))
	t.Cleanup(ts.Close)
	cl, err := client.New(ts.URL, client.WithRetryBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	h, err := cl.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Dataset != "flaky" || calls.Load() != 3 {
		t.Fatalf("health = %+v after %d calls", h, calls.Load())
	}

	// Permanent 503: the budget is spent and the last APIError surfaces.
	calls.Store(-1000)
	cl, err = client.New(ts.URL, client.WithRetries(1), client.WithRetryBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	_, err = cl.Health(context.Background())
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("permanent 503 err = %v", err)
	}
	if got := calls.Load(); got != -998 {
		t.Fatalf("attempts = %d, want 2", got+1000)
	}

	// Non-503 errors do not retry.
	notFound := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "nope", http.StatusNotFound)
	}))
	t.Cleanup(notFound.Close)
	calls.Store(0)
	cl, err = client.New(notFound.URL, client.WithRetryBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, err = cl.Health(context.Background()); err == nil {
		t.Fatal("expected error")
	}
	if calls.Load() != 1 {
		t.Fatalf("404 retried %d times", calls.Load()-1)
	}
}

// TestIntegrationSmoke is the in-process server↔client smoke the CI
// workflow mirrors with real binaries: serve a generated graph, drive it
// through the typed client, and pin every answer to a direct Searcher on
// the same graph.
func TestIntegrationSmoke(t *testing.T) {
	g := testGraph()
	direct := core.NewSearcher(g.Clone())
	srv := server.New("smoke", g)
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	cl, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	for _, algo := range []string{"exact", "exact+", "appinc", "appfast", "appacc"} {
		for _, q := range []int64{0, 7, 19, 31} {
			got, err := cl.Query(ctx, client.Query{Q: q, K: 4, Algo: algo})
			want, wantErr := direct.Search(ctx, core.Query{Q: graph.V(q), K: 4, Algo: algo})
			if wantErr != nil {
				if err == nil {
					t.Fatalf("%s q=%d: client succeeded, direct failed: %v", algo, q, wantErr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s q=%d: %v", algo, q, err)
			}
			if len(got.Members) != len(want.Members) {
				t.Fatalf("%s q=%d: client %v, direct %v", algo, q, got.Members, want.Members)
			}
			for i, m := range want.Members {
				if got.Members[i] != int64(m) {
					t.Fatalf("%s q=%d: member %d = %d, want %d", algo, q, i, got.Members[i], m)
				}
			}
			if got.MCC.R != want.MCC.R || got.Delta != want.Delta {
				t.Fatalf("%s q=%d: client (r=%v δ=%v), direct (r=%v δ=%v)",
					algo, q, got.MCC.R, got.Delta, want.MCC.R, want.Delta)
			}
		}
	}
}

// TestRetryHonorsRetryAfter pins the Retry-After contract: a 503 carrying
// the header must be retried after the server's hint, not the client's own
// (much larger) backoff.
func TestRetryHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"shedding","code":"stale_read"}`))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"status":"ok","dataset":"hint","vertices":1,"edges":0}`))
	}))
	t.Cleanup(ts.Close)
	// Backoff of 10s would blow the elapsed bound if Retry-After were ignored.
	cl, err := client.New(ts.URL, client.WithRetries(2), client.WithRetryBackoff(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	h, err := cl.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if h.Dataset != "hint" || calls.Load() != 2 {
		t.Fatalf("health = %+v after %d calls", h, calls.Load())
	}
	if elapsed < 900*time.Millisecond || elapsed > 5*time.Second {
		t.Fatalf("retry slept %v; Retry-After of 1s was not honored", elapsed)
	}
}

// TestReadOnlyNotRetriedInPlace: a 503 coded read_only means this node will
// never accept the write — retrying it in place only delays the failover a
// Set would perform.
func TestReadOnlyNotRetriedInPlace(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":"replica is read-only","code":"read_only"}`))
	}))
	t.Cleanup(ts.Close)
	cl, err := client.New(ts.URL, client.WithRetries(3), client.WithRetryBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	err = cl.CheckIn(context.Background(), 1, 0.5, 0.5)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Code != "read_only" {
		t.Fatalf("err = %v, want read_only APIError", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("read_only retried in place: %d attempts", calls.Load())
	}
}

// readOnlyStub mimics a replica's write surface: every POST write bounces
// with 503 read_only; reads are not served (503 unavailable) so read
// failover can be observed too.
func readOnlyStub(t *testing.T, writeCalls, readCalls *atomic.Int32) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		switch r.URL.Path {
		case "/v1/checkin", "/v1/edge":
			writeCalls.Add(1)
			w.Write([]byte(`{"error":"replica is read-only","code":"read_only"}`))
		default:
			readCalls.Add(1)
			w.Write([]byte(`{"error":"shedding","code":"stale_read"}`))
		}
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestSetWriteFailover routes writes through a Set whose first endpoint is
// read-only: the first write walks to the healthy endpoint, and subsequent
// writes remember it instead of re-probing the dead one.
func TestSetWriteFailover(t *testing.T) {
	var stubWrites, stubReads atomic.Int32
	stub := readOnlyStub(t, &stubWrites, &stubReads)

	g := testGraph()
	srv := server.New("leader", g)
	t.Cleanup(srv.Close)
	leader := httptest.NewServer(srv)
	t.Cleanup(leader.Close)

	set, err := client.NewSet([]string{stub.URL, leader.URL},
		client.WithRetries(0), client.WithRetryBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	if err := set.CheckIn(ctx, 3, 0.25, 0.75); err != nil {
		t.Fatalf("first write through the set: %v", err)
	}
	if got := stubWrites.Load(); got != 1 {
		t.Fatalf("read-only endpoint saw %d write attempts, want 1", got)
	}
	if _, err := set.Edge(ctx, 0, 7, true); err != nil {
		t.Fatalf("second write: %v", err)
	}
	if got := stubWrites.Load(); got != 1 {
		t.Fatalf("writer stickiness failed: read-only endpoint re-probed (%d attempts)", got)
	}

	// The write landed: read it back through the set (reads that hit the
	// shedding stub fail over to the leader).
	for i := 0; i < 4; i++ {
		vx, err := set.Vertex(ctx, 3)
		if err != nil {
			t.Fatalf("set read %d: %v", i, err)
		}
		if vx.X != 0.25 || vx.Y != 0.75 {
			t.Fatalf("set read %d = %+v", i, vx)
		}
	}
	if stubReads.Load() == 0 {
		t.Fatal("round-robin never touched the first endpoint")
	}
}

// TestSetReadFailoverOnTransportError lists a dead endpoint first: reads
// and writes must both walk past the connection failure.
func TestSetReadFailoverOnTransportError(t *testing.T) {
	g := testGraph()
	srv := server.New("alive", g)
	t.Cleanup(srv.Close)
	alive := httptest.NewServer(srv)
	t.Cleanup(alive.Close)

	dead := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	deadURL := dead.URL
	dead.Close() // nothing listens here any more

	set, err := client.NewSet([]string{deadURL, alive.URL},
		client.WithRetries(0), client.WithRetryBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := set.Query(ctx, client.Query{Q: 1, K: 4}); err != nil {
			t.Fatalf("query %d through set with dead endpoint: %v", i, err)
		}
	}
	if err := set.CheckIn(ctx, 1, 0.5, 0.5); err != nil {
		t.Fatalf("write through set with dead endpoint: %v", err)
	}

	// Non-failover errors surface immediately instead of walking the set.
	if _, err := set.Query(ctx, client.Query{Q: 1, K: 4, Algo: "bogus"}); err == nil {
		t.Fatal("bad algorithm succeeded")
	} else {
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
			t.Fatalf("bad algorithm err = %v", err)
		}
	}
}

// TestSetSkipsKnownReadOnlyEndpoints pins the read_only memory: once an
// endpoint has answered a write with read_only, later writes must not burn
// a first-pass request on it — but it must still be probed as a last
// resort, which is how a promotion is discovered.
func TestSetSkipsKnownReadOnlyEndpoints(t *testing.T) {
	g := testGraph()
	var aWrites, bWrites atomic.Int32
	var bPromoted atomic.Bool

	readOnlyJSON := []byte(`{"error":"replica is read-only","code":"read_only"}`)
	a := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		aWrites.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write(readOnlyJSON)
	}))
	t.Cleanup(a.Close)

	leader := server.New("leader", g)
	t.Cleanup(leader.Close)
	b := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !bPromoted.Load() {
			bWrites.Add(1)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write(readOnlyJSON)
			return
		}
		bWrites.Add(1)
		leader.ServeHTTP(w, r)
	}))
	t.Cleanup(b.Close)

	set, err := client.NewSet([]string{a.URL, b.URL},
		client.WithRetries(0), client.WithRetryBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// No writable endpoint anywhere: the write fails after probing each
	// endpoint exactly once, and both get flagged.
	if err := set.CheckIn(ctx, 1, 0.5, 0.5); err == nil {
		t.Fatal("write with no leader succeeded")
	} else {
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Code != "read_only" {
			t.Fatalf("want the read_only verdict, got %v", err)
		}
	}
	if aWrites.Load() != 1 || bWrites.Load() != 1 {
		t.Fatalf("first write probed a=%d b=%d times, want 1 each", aWrites.Load(), bWrites.Load())
	}

	// B is promoted. The next write discovers it on the fallback pass —
	// each flagged endpoint is still probed at most once.
	bPromoted.Store(true)
	if err := set.CheckIn(ctx, 1, 0.25, 0.75); err != nil {
		t.Fatalf("write after promotion: %v", err)
	}
	if aWrites.Load() > 2 {
		t.Fatalf("flagged endpoint a probed %d times across two writes, want <= 2", aWrites.Load())
	}

	// B's success cleared its flag and made it the sticky writer: this
	// write must go straight there, with no request to a at all.
	aBefore := aWrites.Load()
	if err := set.CheckIn(ctx, 1, 0.1, 0.9); err != nil {
		t.Fatalf("write to promoted leader: %v", err)
	}
	if aWrites.Load() != aBefore {
		t.Fatalf("known-read-only endpoint was re-probed after a healthy write (a=%d, was %d)", aWrites.Load(), aBefore)
	}
}

// TestQueryDecodeResult: Query reads an answer through wire.DecodeResult, so
// a body in the servers' layout and one outside it (whitespace, an unknown
// key) give the value json.Unmarshal gives, and a body that is not an answer
// is a decoding error, not a zero Result.
func TestQueryDecodeResult(t *testing.T) {
	layout := `{"q":3,"k":2,"members":[1,3,5],"mcc":{"x":0.5,"y":0.25,"r":1e-7},"delta":0.125,"stats":{"candidateSize":9,"feasibilityChecks":2,"binaryIters":1,"elapsedMicros":40,"algorithm":"appfast"}}` + "\n"
	other := `{"explain":{}, "q":3, "k":2, "members":[1, 3, 5], "delta":0.125, "mcc":{"x":0.5,"y":0.25,"r":1e-7}, "stats":{"candidateSize":9,"feasibilityChecks":2,"binaryIters":1,"elapsedMicros":40,"algorithm":"appfast"}}`
	for _, tc := range []struct{ name, body string }{{"layout", layout}, {"other", other}, {"broken", `{"q":3,"members":[1,`}} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write([]byte(tc.body))
		}))
		cl, err := client.New(srv.URL, client.WithRetries(0))
		if err != nil {
			t.Fatal(err)
		}
		got, err := cl.Query(context.Background(), client.Query{Q: 3, K: 2})
		srv.Close()
		var want client.Result
		if wantErr := json.Unmarshal([]byte(tc.body), &want); wantErr != nil {
			if err == nil {
				t.Fatalf("%s: decoded %+v from a body json.Unmarshal refuses (%v)", tc.name, got, wantErr)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(*got, want) {
			t.Fatalf("%s: got %+v (%v), want %+v", tc.name, got, err, want)
		}
	}
}
