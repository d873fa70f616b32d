package router

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sacsearch/client"
	"sacsearch/internal/gen"
	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
	"sacsearch/internal/server"
	"sacsearch/internal/shard"
	"sacsearch/internal/store"
	"sacsearch/internal/telemetry"
	"sacsearch/internal/wire"
)

// testGraph builds a spatially clustered social graph. The small sigma
// keeps graph communities spatially coherent — so certified single-shard
// answers exist — while the power-law backbone still drags plenty of
// communities across shard boundaries.
func testGraph(n, m int, seed int64) *graph.Graph {
	b := gen.SocialGraph(n, m, seed)
	gen.PlaceSpatial(b, 0.03, 0.08, seed+1)
	return b.Build()
}

// topology is one sharded deployment next to its single-engine reference —
// both driven over HTTP so wire shapes and envelopes are compared end to
// end.
type topology struct {
	g      *graph.Graph
	m      *shard.Map
	single *httptest.Server   // the reference: one server over the whole graph
	shards []*httptest.Server // per-shard servers
	router *httptest.Server
	rt     *Router

	singleCl *client.Client
	routerCl *client.Client
}

// routerHandler exposes the underlying Router for tests that reach into
// its subscription state.
func (tp *topology) routerHandler(t *testing.T) *Router {
	t.Helper()
	return tp.rt
}

func newTopology(t *testing.T, g *graph.Graph, shards int) *topology {
	t.Helper()
	// A real registry so tests can read the router's counters (nil would
	// no-op every instrument).
	return newTopologyWith(t, g, shards, server.Config{}, Config{Metrics: telemetry.NewRegistry()})
}

// newTopologyWith is newTopology with explicit settings: scfg configures the
// reference server and every shard server (Shard is filled per shard), rcfg
// the router (Map and Shards are filled here).
func newTopologyWith(t *testing.T, g *graph.Graph, shards int, scfg server.Config, rcfg Config) *topology {
	t.Helper()
	tp := &topology{g: g}
	var err error
	tp.m, err = shard.Partition(g, shards)
	if err != nil {
		t.Fatal(err)
	}

	ref := server.NewWithConfig("single", g.Clone(), scfg)
	t.Cleanup(ref.Close)
	tp.single = httptest.NewServer(ref)
	t.Cleanup(tp.single.Close)

	urls := make([][]string, shards)
	for id := 0; id < shards; id++ {
		sub, err := shard.Subgraph(g, tp.m, id)
		if err != nil {
			t.Fatal(err)
		}
		sv, err := shard.NewServing(tp.m, id)
		if err != nil {
			t.Fatal(err)
		}
		shardCfg := scfg
		shardCfg.Shard = sv
		srv := server.NewWithConfig(fmt.Sprintf("shard-%d", id), sub, shardCfg)
		t.Cleanup(srv.Close)
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		tp.shards = append(tp.shards, ts)
		urls[id] = []string{ts.URL}
	}

	rcfg.Map, rcfg.Shards = tp.m, urls
	rt, err := New(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	tp.rt = rt
	t.Cleanup(rt.DrainSubscriptions)
	tp.router = httptest.NewServer(rt)
	t.Cleanup(tp.router.Close)

	if tp.singleCl, err = client.New(tp.single.URL); err != nil {
		t.Fatal(err)
	}
	if tp.routerCl, err = client.New(tp.router.URL); err != nil {
		t.Fatal(err)
	}
	return tp
}

// deltaClose compares deltas up to ULP-scale noise. Members and the result
// MCC are pinned byte-equal (buildResult sorts members before computing the
// MCC, so both engines feed it identical input); delta alone gets this
// slack because Exact+ reports the MCC radius of the last circle that
// improved its enumeration, and that intermediate radius is computed on
// members in peel order. Peel order follows CSR adjacency order, which
// legitimately differs between the full graph and the assembled subgraph
// (rebuilt from scratch at the router) — and geom.MCC's randomized
// incremental construction is order-sensitive in the last bit. The bound is
// ~16k ULP at these magnitudes: far above that noise, far below any real
// answer divergence.
func deltaClose(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}

// diffQueries runs the same query against the reference and the router and
// pins members and MCC to byte equality, delta to deltaClose. Returns how
// many queries had cross-shard answers (members on >= 2 shards).
func (tp *topology) diffQueries(t *testing.T, label string, queries []client.Query) (crossShard int) {
	t.Helper()
	for _, q := range queries {
		want, wantErr := tp.singleCl.Query(t.Context(), q)
		got, gotErr := tp.routerCl.Query(t.Context(), q)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: q=%d k=%d algo=%q: single err=%v, routed err=%v", label, q.Q, q.K, q.Algo, wantErr, gotErr)
		}
		if wantErr != nil {
			if errors.Is(wantErr, client.ErrNoCommunity) != errors.Is(gotErr, client.ErrNoCommunity) {
				t.Fatalf("%s: q=%d k=%d algo=%q: error kinds differ: %v vs %v", label, q.Q, q.K, q.Algo, wantErr, gotErr)
			}
			continue
		}
		if len(want.Members) != len(got.Members) {
			t.Fatalf("%s: q=%d k=%d algo=%q: %d members routed, %d single",
				label, q.Q, q.K, q.Algo, len(got.Members), len(want.Members))
		}
		for i := range want.Members {
			if want.Members[i] != got.Members[i] {
				t.Fatalf("%s: q=%d k=%d algo=%q: member[%d] = %d routed, %d single",
					label, q.Q, q.K, q.Algo, i, got.Members[i], want.Members[i])
			}
		}
		if want.MCC != got.MCC {
			t.Fatalf("%s: q=%d k=%d algo=%q: MCC %+v routed, %+v single", label, q.Q, q.K, q.Algo, got.MCC, want.MCC)
		}
		if !deltaClose(want.Delta, got.Delta) {
			t.Fatalf("%s: q=%d k=%d algo=%q: delta %v routed, %v single", label, q.Q, q.K, q.Algo, got.Delta, want.Delta)
		}
		owners := map[int]bool{}
		for _, m := range want.Members {
			owners[tp.m.OwnerOf(graph.V(m))] = true
		}
		if len(owners) > 1 {
			crossShard++
		}
	}
	return crossShard
}

// sampleQueries spreads (q, k) pairs over the graph for the approximation
// algorithms (cheap enough to sample at every k, including the k=1
// whole-component degenerate) plus θ-SAC at two radii. The exact
// algorithms are covered by TestRoutedExactAlgorithms on a graph sized for
// their cost.
func sampleQueries(n int, stride int) []client.Query {
	var qs []client.Query
	cheap := []string{"", "appfast", "appinc", "appacc"}
	for v := 0; v < n; v += stride {
		for _, k := range []int{1, 2, 3, 4} {
			algo := cheap[(v/stride+k)%len(cheap)]
			qs = append(qs, client.Query{Q: int64(v), K: k, Algo: algo})
		}
		for _, theta := range []float64{0.05, 0.3} {
			qs = append(qs, client.Query{Q: int64(v), K: 2 + v%3, Algo: "theta", Theta: client.Float(theta)})
		}
	}
	return qs
}

// TestRoutedEqualsSingleEngine is the differential suite: routed answers
// must equal the single-engine reference for every registered algorithm —
// including cross-shard candidate sets — before and after a churn of
// check-ins and (cross-shard) edge mutations applied through both fronts.
func TestRoutedEqualsSingleEngine(t *testing.T) {
	g := testGraph(360, 1700, 91)
	tp := newTopology(t, g, 3)
	n := g.NumVertices()

	queries := sampleQueries(n, 26)
	cross := tp.diffQueries(t, "pre-churn", queries)
	if cross == 0 {
		t.Fatal("differential sample never exercised a cross-shard answer; graph or partition too easy")
	}
	t.Logf("pre-churn: %d/%d queries had cross-shard answers", cross, len(queries))

	// Churn: spatial drift (including cross-cell jumps that break any
	// geometry-based assumption), edge inserts biased toward cross-shard
	// pairs, and deletes of existing edges. Both fronts see the identical
	// sequence; both are read-your-writes, so the states are quiesced when
	// the writes return.
	rnd := rand.New(rand.NewSource(17))
	for i := 0; i < 120; i++ {
		v := int64(rnd.Intn(n))
		x, y := rnd.Float64(), rnd.Float64()
		if err := tp.singleCl.CheckIn(t.Context(), v, x, y); err != nil {
			t.Fatalf("single checkin: %v", err)
		}
		if err := tp.routerCl.CheckIn(t.Context(), v, x, y); err != nil {
			t.Fatalf("routed checkin: %v", err)
		}
	}
	var lastSingle, lastRouted *client.EdgeResult
	for i := 0; i < 150; i++ {
		u := int64(rnd.Intn(n))
		v := int64(rnd.Intn(n))
		if u == v {
			continue
		}
		insert := i%3 != 2
		var err error
		if lastSingle, err = tp.singleCl.Edge(t.Context(), u, v, insert); err != nil {
			t.Fatalf("single edge: %v", err)
		}
		if lastRouted, err = tp.routerCl.Edge(t.Context(), u, v, insert); err != nil {
			t.Fatalf("routed edge: %v", err)
		}
		if lastSingle.Changed != lastRouted.Changed {
			t.Fatalf("edge (%d,%d,insert=%v): changed=%v single, %v routed", u, v, insert, lastSingle.Changed, lastRouted.Changed)
		}
	}
	if lastSingle.Edges != lastRouted.Edges {
		t.Fatalf("edge counts diverged after churn: %d single, %d routed", lastSingle.Edges, lastRouted.Edges)
	}

	cross = tp.diffQueries(t, "post-churn", queries)
	t.Logf("post-churn: %d/%d queries had cross-shard answers", cross, len(queries))
}

// TestRoutedExactAlgorithms runs the two exact algorithms — whose cost
// grows steeply with candidate size — through the same routed-vs-single
// differential on a graph at the scale the core package's own differential
// uses, before and after churn.
func TestRoutedExactAlgorithms(t *testing.T) {
	g := testGraph(90, 420, 7)
	tp := newTopology(t, g, 2)
	n := g.NumVertices()

	var queries []client.Query
	for v := 0; v < n; v += 5 {
		for _, k := range []int{2, 3, 4} {
			queries = append(queries,
				client.Query{Q: int64(v), K: k, Algo: "exact"},
				client.Query{Q: int64(v), K: k, Algo: "exact+"})
		}
	}
	cross := tp.diffQueries(t, "exact pre-churn", queries)
	t.Logf("exact pre-churn: %d/%d cross-shard", cross, len(queries))

	rnd := rand.New(rand.NewSource(5))
	for i := 0; i < 30; i++ {
		v, x, y := int64(rnd.Intn(n)), rnd.Float64(), rnd.Float64()
		if err := tp.singleCl.CheckIn(t.Context(), v, x, y); err != nil {
			t.Fatal(err)
		}
		if err := tp.routerCl.CheckIn(t.Context(), v, x, y); err != nil {
			t.Fatal(err)
		}
		u, w := int64(rnd.Intn(n)), int64(rnd.Intn(n))
		if u == w {
			continue
		}
		if _, err := tp.singleCl.Edge(t.Context(), u, w, i%3 != 2); err != nil {
			t.Fatal(err)
		}
		if _, err := tp.routerCl.Edge(t.Context(), u, w, i%3 != 2); err != nil {
			t.Fatal(err)
		}
	}
	tp.diffQueries(t, "exact post-churn", queries)
}

// TestRoutedExactPlusParallel runs Exact+ through a router whose scan budget
// is 4 against a single engine at budget 0. The graph is a clique of 64
// scattered vertices, so every answer spans both shards and is assembled at
// the router, where F1 is wide enough for the scan to fan out; the answers
// must still be the single engine's.
func TestRoutedExactPlusParallel(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	b := graph.NewBuilder(64)
	for v := 0; v < 64; v++ {
		b.SetLoc(graph.V(v), geom.Point{X: rnd.Float64(), Y: rnd.Float64()})
		for j := 0; j < v; j++ {
			b.AddEdge(graph.V(v), graph.V(j))
		}
	}
	tp := newTopologyWith(t, b.Build(), 2, server.Config{}, Config{QueryParallelism: 4})
	queries := []client.Query{
		{Q: 0, K: 20, Algo: "exact+", EpsA: client.Float(0.5)},
		{Q: 17, K: 40, Algo: "exact+", EpsA: client.Float(0.5)},
	}
	if cross := tp.diffQueries(t, "parallel exact+", queries); cross != len(queries) {
		t.Fatalf("%d of %d answers were cross-shard; the fixture should assemble every one", cross, len(queries))
	}
}

// TestRoutedBatch pins the batch surface: same members and circles, same
// per-item error strings for infeasible items.
func TestRoutedBatch(t *testing.T) {
	g := testGraph(300, 1300, 55)
	tp := newTopology(t, g, 2)
	var qs []client.BatchQuery
	for v := 0; v < g.NumVertices(); v += 13 {
		qs = append(qs, client.BatchQuery{Q: int64(v), K: 1 + v%5})
	}
	want, err := tp.singleCl.Batch(t.Context(), qs, &client.BatchOptions{Algo: "appfast"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := tp.routerCl.Batch(t.Context(), qs, &client.BatchOptions{Algo: "appfast"})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("item counts differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if want[i].Error != got[i].Error {
			t.Fatalf("item %d (q=%d k=%d): error %q single, %q routed", i, want[i].Q, want[i].K, want[i].Error, got[i].Error)
		}
		if len(want[i].Members) != len(got[i].Members) || want[i].MCC != got[i].MCC {
			t.Fatalf("item %d (q=%d k=%d): answers differ: %+v vs %+v", i, want[i].Q, want[i].K, want[i], got[i])
		}
		for j := range want[i].Members {
			if want[i].Members[j] != got[i].Members[j] {
				t.Fatalf("item %d member %d differs", i, j)
			}
		}
	}
}

// searchLegPeak is a transport that records how many /v1/shard/search legs
// were in flight at once, and how many were opened. A routed k-core query
// opens with exactly one such leg, so the peak is the number of batch
// workers routing concurrently and the total the number of queries routed.
type searchLegPeak struct {
	mu               sync.Mutex
	cur, peak, total int
}

func (p *searchLegPeak) add(d int) {
	p.mu.Lock()
	p.cur += d
	p.peak = max(p.peak, p.cur)
	p.total += max(d, 0)
	p.mu.Unlock()
}

func (p *searchLegPeak) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path == "/v1/shard/search" {
		p.add(1)
		defer p.add(-1)
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestRoutedBatchWorkersClamped pins the bound on the client-supplied
// fan-out at the router: "workers" far above GOMAXPROCS must not size the
// worker loop — every worker assembling a cross-shard query builds a cold
// searcher — and the batch still answers every item.
func TestRoutedBatchWorkersClamped(t *testing.T) {
	limit := runtime.GOMAXPROCS(0)
	g := testGraph(300, 1300, 55)
	var legs searchLegPeak
	tp := newTopologyWith(t, g, 2, server.Config{}, Config{
		ClientOptions: []client.Option{client.WithHTTPClient(&http.Client{Transport: &legs})},
	})
	var qs []client.BatchQuery
	for i := 0; i < 16*limit+32; i++ {
		qs = append(qs, client.BatchQuery{Q: int64(i * 7 % g.NumVertices()), K: 2})
	}
	items, err := tp.routerCl.Batch(t.Context(), qs, &client.BatchOptions{Algo: "appfast", Workers: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != len(qs) {
		t.Fatalf("items = %d, want %d", len(items), len(qs))
	}
	legs.mu.Lock()
	peak := legs.peak
	legs.mu.Unlock()
	if peak < 1 || peak > limit {
		t.Fatalf("batch of %d queries with workers=100000 ran %d search legs at once, want 1..GOMAXPROCS (%d)",
			len(qs), peak, limit)
	}
}

// TestRoutedBatchDeduplicates: a routed batch answers each distinct (q, k)
// once, like a single server's — one /v1/shard/search leg apiece — and every
// duplicate item carries the same answer as its first occurrence.
func TestRoutedBatchDeduplicates(t *testing.T) {
	g := testGraph(300, 1300, 55)
	var legs searchLegPeak
	tp := newTopologyWith(t, g, 2, server.Config{}, Config{
		ClientOptions: []client.Option{client.WithHTTPClient(&http.Client{Transport: &legs})},
	})
	var qs []client.BatchQuery
	first := map[client.BatchQuery]int{}
	for i := 0; i < 30; i++ {
		q := client.BatchQuery{Q: int64(i % 5 * 37), K: 2 + i%3}
		if _, ok := first[q]; !ok {
			first[q] = i
		}
		qs = append(qs, q)
	}
	items, err := tp.routerCl.Batch(t.Context(), qs, &client.BatchOptions{Algo: "appfast"})
	if err != nil {
		t.Fatal(err)
	}
	legs.mu.Lock()
	total := legs.total
	legs.mu.Unlock()
	if total != len(first) {
		t.Fatalf("batch of %d items over %d distinct (q, k) opened %d search legs", len(qs), len(first), total)
	}
	for i, q := range qs {
		if want := items[first[q]]; !reflect.DeepEqual(items[i], want) {
			t.Fatalf("item %d (q=%d k=%d) = %+v, its first occurrence %+v", i, q.Q, q.K, items[i], want)
		}
	}
}

// TestRoutedBatchDeadline is the router half of the server's
// TestQueryDeadline: with an immediately expiring budget a batch is 503
// deadline_exceeded, not 200 with per-item errors.
func TestRoutedBatchDeadline(t *testing.T) {
	tp := newTopologyWith(t, testGraph(200, 900, 17), 2, server.Config{}, Config{QueryTimeout: time.Nanosecond})
	status, env := postRaw(t, tp.router.URL+"/v1/batch", `{"queries":[{"q":1,"k":4}]}`)
	if status != http.StatusServiceUnavailable || env.Code != wire.CodeDeadlineExceeded {
		t.Fatalf("expired batch deadline: %d %+v, want 503 %s", status, env, wire.CodeDeadlineExceeded)
	}
}

// postRaw posts a JSON body and decodes the error envelope.
func postRaw(t *testing.T, url string, body string) (int, wire.Error) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env wire.Error
	_ = json.NewDecoder(resp.Body).Decode(&env)
	return resp.StatusCode, env
}

// TestEnvelopeParity pins that the router speaks the single server's error
// contract: same status and code (and message, for core-level errors) for
// the same bad request.
func TestEnvelopeParity(t *testing.T) {
	g := testGraph(300, 1200, 77)
	tp := newTopology(t, g, 2)
	cases := []string{
		`{"q":0,"k":3,"algo":"nope"}`,
		`{"q":999999,"k":3}`,
		`{"q":-1,"k":3}`,
		`{"q":0,"k":0}`,
		`{"q":0,"k":3,"algo":"theta"}`,
		`{"q":0,"k":3,"algo":"appfast","epsF":-1}`,
		`{"q":0,"k":3,"structure":"ktruss"}`,
		`{"q":0,"k":3,"algo":"exact","theta":0.5}`,
		`not json`,
	}
	for _, body := range cases {
		wantStatus, wantEnv := postRaw(t, tp.single.URL+"/v1/query", body)
		gotStatus, gotEnv := postRaw(t, tp.router.URL+"/v1/query", body)
		if wantStatus != gotStatus || wantEnv.Code != gotEnv.Code {
			t.Fatalf("body %s: single %d/%s, routed %d/%s", body, wantStatus, wantEnv.Code, gotStatus, gotEnv.Code)
		}
		if wantEnv.Error != gotEnv.Error && wantEnv.Code != wire.CodeInvalidJSON {
			t.Fatalf("body %s: message %q single, %q routed", body, wantEnv.Error, gotEnv.Error)
		}
	}
}

// TestVertexProxyAndHealth covers the metadata surface: vertex lookups
// proxy to the owner, health aggregates every shard, ready gates on map
// agreement.
func TestVertexProxyAndHealth(t *testing.T) {
	g := testGraph(300, 1200, 3)
	tp := newTopology(t, g, 2)
	for _, id := range []int64{0, 17, int64(g.NumVertices() - 1)} {
		want, err := tp.singleCl.Vertex(t.Context(), id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tp.routerCl.Vertex(t.Context(), id)
		if err != nil {
			t.Fatal(err)
		}
		// The core number is shard-local (a documented lower bound), so only
		// the authoritative fields are pinned.
		if want.ID != got.ID || want.X != got.X || want.Y != got.Y || want.Degree != got.Degree {
			t.Fatalf("vertex %d: %+v single, %+v routed", id, want, got)
		}
	}
	h, err := tp.routerCl.Health(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("healthy topology reports %q", h.Status)
	}
	if string(h.Extra["shards"]) != "2" {
		t.Fatalf("health shards = %s, want 2", h.Extra["shards"])
	}
	resp, err := http.Get(tp.router.URL + "/v1/ready")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ready = %d on a healthy topology", resp.StatusCode)
	}
}

// TestShardUnavailable kills one shard and checks the partial-failure
// contract: queries owned (and certified) by the surviving shard still
// answer; anything needing the dead shard returns the structured 503
// shard_unavailable envelope; health degrades; ready gates.
func TestShardUnavailable(t *testing.T) {
	// Two 8-cliques in opposite corners: the spatial cut puts one whole
	// clique on each shard, so each shard has a certified community and
	// owns vertices the other shard never needs.
	b := graph.NewBuilder(16)
	for c := 0; c < 2; c++ {
		base, cx := c*8, 0.1+0.8*float64(c)
		for i := 0; i < 8; i++ {
			b.SetLoc(graph.V(base+i), geom.Point{X: cx + float64(i%3)*0.01, Y: cx + float64(i/3)*0.01})
			for j := i + 1; j < 8; j++ {
				b.AddEdge(graph.V(base+i), graph.V(base+j))
			}
		}
	}
	g := b.Build()
	tp := newTopology(t, g, 2)
	if tp.m.OwnerOf(0) == tp.m.OwnerOf(8) {
		t.Fatal("cliques landed on the same shard; test graph needs adjusting")
	}
	// Use short client retries so the dead shard fails fast.
	routerShort, err := New(Config{
		Map:    tp.m,
		Shards: [][]string{{tp.shards[0].URL}, {tp.shards[1].URL}},
		ClientOptions: []client.Option{
			client.WithRetries(0),
			client.WithHTTPClient(&http.Client{Timeout: 2 * time.Second}),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(routerShort)
	defer ts.Close()
	cl, err := client.New(ts.URL, client.WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}

	// Clique 0's shard stays up; the other goes dark.
	live := tp.m.OwnerOf(0)
	tp.shards[1-live].Close()
	ok0, dead1 := int64(0), int64(8) // vertex 0 on the live shard, 8 on the dead one

	if res, err := cl.Query(t.Context(), client.Query{Q: ok0, K: 2}); err != nil {
		t.Fatalf("certified query on the live shard failed: %v", err)
	} else {
		// SAC minimizes the community, so any sub-clique is a valid answer —
		// what matters is that it answered from the live shard alone.
		if len(res.Members) < 3 {
			t.Fatalf("clique query returned %d members, want >= 3", len(res.Members))
		}
		for _, m := range res.Members {
			if tp.m.OwnerOf(graph.V(m)) != live {
				t.Fatalf("member %d is owned by the dead shard", m)
			}
		}
	}
	_, err = cl.Query(t.Context(), client.Query{Q: dead1, K: 2})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable || apiErr.Code != wire.CodeShardUnavailable {
		t.Fatalf("query for the dead shard: got %v, want 503 %s", err, wire.CodeShardUnavailable)
	}
	if err := cl.CheckIn(t.Context(), dead1, 0.5, 0.5); err == nil {
		t.Fatal("checkin for the dead shard succeeded")
	}

	h, err := cl.Health(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" {
		t.Fatalf("health with a dead shard = %q, want degraded", h.Status)
	}
	resp, err := http.Get(ts.URL + "/v1/ready")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ready with a dead shard = %d, want 503", resp.StatusCode)
	}
}

// TestWrongShardGuards posts writes for foreign vertices directly at a
// shard, which must refuse with wrong_shard rather than fork ghost state.
func TestWrongShardGuards(t *testing.T) {
	g := testGraph(300, 1200, 29)
	tp := newTopology(t, g, 2)
	var foreign int64 = -1
	for v := 0; v < g.NumVertices(); v++ {
		if tp.m.OwnerOf(graph.V(v)) == 1 {
			foreign = int64(v)
			break
		}
	}
	status, env := postRaw(t, tp.shards[0].URL+"/v1/checkin",
		fmt.Sprintf(`{"v":%d,"x":0.1,"y":0.2}`, foreign))
	if status != http.StatusBadRequest || env.Code != wire.CodeWrongShard {
		t.Fatalf("foreign checkin: %d/%s, want 400 %s", status, env.Code, wire.CodeWrongShard)
	}
	status, env = postRaw(t, tp.shards[0].URL+"/v1/shard/search",
		fmt.Sprintf(`{"q":%d,"k":2}`, foreign))
	if status != http.StatusBadRequest || env.Code != wire.CodeWrongShard {
		t.Fatalf("foreign shard search: %d/%s, want 400 %s", status, env.Code, wire.CodeWrongShard)
	}
}

// TestWideIDsAreUnknownVertices: a vertex id no 32-bit graph.V can hold —
// one that would wrap into vertex 3 if narrowed unchecked — gets, on every
// id-carrying field of every route and on both front-ends, the status, code
// and field that route gives an id that merely names no vertex, with a
// message quoting the id as sent. A wide batch item is that item's error in a
// 200 whose other items are answered.
func TestWideIDsAreUnknownVertices(t *testing.T) {
	tp := newTopology(t, testGraph(120, 500, 23), 2)
	const absent = "999999"
	shard0 := tp.shards[0].URL
	var owned int // a vertex shard 0 owns, for the seed next to the wide one
	for tp.m.OwnerOf(graph.V(owned)) != 0 {
		owned++
	}
	routes := []struct {
		method, path, body string // %s is the id
		bases              []string
	}{
		{"POST", "/v1/query", `{"q":%s,"k":3}`, []string{tp.single.URL, tp.router.URL}},
		{"POST", "/v1/checkin", `{"v":%s,"x":0.5,"y":0.5}`, []string{tp.single.URL, tp.router.URL, shard0}},
		{"POST", "/v1/edge", `{"u":%s,"v":1,"op":"insert"}`, []string{tp.single.URL, tp.router.URL, shard0}},
		{"POST", "/v1/edge", `{"u":1,"v":%s,"op":"delete"}`, []string{tp.single.URL, tp.router.URL, shard0}},
		{"GET", "/v1/vertex/%s", "", []string{tp.single.URL, tp.router.URL, shard0}},
		{"GET", "/v1/subscribe?q=%s&k=3", "", []string{tp.single.URL, tp.router.URL}},
		{"POST", "/v1/shard/search", `{"q":%s,"k":3}`, []string{shard0}},
		{"POST", "/v1/shard/expand", fmt.Sprintf(`{"k":3,"seeds":[%d,%%s]}`, owned), []string{shard0}},
	}
	call := func(base, method, path, body string) (int, wire.Error) {
		req, err := http.NewRequest(method, base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env wire.Error
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("%s %s %s: status %d, body is no envelope: %v", method, path, body, resp.StatusCode, err)
		}
		return resp.StatusCode, env
	}
	for _, wide := range []string{"4294967299", "-4294967293", "2147483648"} {
		for _, rt := range routes {
			for _, base := range rt.bases {
				fill := func(id string) (string, string) {
					path, body := rt.path, rt.body
					if strings.Contains(path, "%s") {
						path = fmt.Sprintf(path, id)
					} else {
						body = fmt.Sprintf(body, id)
					}
					return path, body
				}
				path, body := fill(absent)
				wantStatus, want := call(base, rt.method, path, body)
				path, body = fill(wide)
				status, got := call(base, rt.method, path, body)
				if status != wantStatus || got.Code != want.Code || got.Field != want.Field || !strings.Contains(got.Error, wide) {
					t.Errorf("%s %s %s: %d %s/%q %q; id %s on the same route gets %d %s/%q",
						rt.method, path, body, status, got.Code, got.Field, got.Error, absent, wantStatus, want.Code, want.Field)
				}
				if status != http.StatusBadRequest && status != http.StatusNotFound {
					t.Errorf("%s %s %s: status %d", rt.method, path, body, status)
				}
			}
		}
		for _, base := range []string{tp.single.URL, tp.router.URL} {
			resp, err := http.Post(base+"/v1/batch", "application/json",
				strings.NewReader(`{"queries":[{"q":`+wide+`,"k":2},{"q":1,"k":2}],"algo":"appinc"}`))
			if err != nil {
				t.Fatal(err)
			}
			var out wire.BatchResponse
			err = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK || len(out.Items) != 2 {
				t.Fatalf("batch with a wide item: status %d, %d items (%v)", resp.StatusCode, len(out.Items), err)
			}
			if !strings.Contains(out.Items[0].Error, wide) || out.Items[0].Members != nil {
				t.Errorf("batch: the wide item answered %+v", out.Items[0])
			}
			if single, err := tp.singleCl.Query(t.Context(), client.Query{Q: 1, K: 2, Algo: "appinc"}); err != nil ||
				!reflect.DeepEqual(out.Items[1].Members, single.Members) {
				t.Errorf("batch: the item beside the wide one answered %+v (want %v, %v)", out.Items[1], single, err)
			}
		}
	}
}

// TestRouterHealthKeepsShardFields: the router re-serves each shard's
// /v1/health whole — the durability, snapshot and build fields an operator
// reads there are outside the prefix client.Health types, and used to be
// dropped on the way through.
func TestRouterHealthKeepsShardFields(t *testing.T) {
	g := testGraph(80, 300, 5)
	m, err := shard.Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	urls := make([][]string, 2)
	for id := range urls {
		sub, err := shard.Subgraph(g, m, id)
		if err != nil {
			t.Fatal(err)
		}
		cfg := server.Config{}
		if cfg.Shard, err = shard.NewServing(m, id); err != nil {
			t.Fatal(err)
		}
		var srv *server.Server
		if id == 0 { // shard 0 is durable
			st, err := store.Open(t.TempDir(), store.Options{Init: sub})
			if err != nil {
				t.Fatal(err)
			}
			srv = server.NewWithStore("shard-0", st, cfg)
		} else {
			srv = server.NewWithConfig("shard-1", sub, cfg)
		}
		t.Cleanup(srv.Close)
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		urls[id] = []string{ts.URL}
	}
	rt, err := New(Config{Map: m, Shards: urls})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt)
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		ShardHealth []struct {
			Health map[string]any `json:"health"`
		} `json:"shardHealth"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil || len(health.ShardHealth) != 2 {
		t.Fatalf("router health: %v, %d shards", err, len(health.ShardHealth))
	}
	for _, key := range []string{"walLastSeq", "fsyncPolicy", "snapshotSeq", "build", "shardId", "role", "durable"} {
		if _, ok := health.ShardHealth[0].Health[key]; !ok {
			t.Errorf("durable shard's health lost %q on the way through the router: %v", key, health.ShardHealth[0].Health)
		}
	}
	if _, ok := health.ShardHealth[1].Health["snapshotSeq"]; !ok {
		t.Errorf("in-memory shard's health lost snapshotSeq: %v", health.ShardHealth[1].Health)
	}
	if _, ok := health.ShardHealth[1].Health["walLastSeq"]; ok {
		t.Errorf("in-memory shard's health gained a WAL field: %v", health.ShardHealth[1].Health)
	}
}

// TestBogusFrontierIsALegFailure: an id in a shard's expansion is an integer
// from outside like any other — one outside the shard map fails that leg (503
// shard_unavailable, naming the shard) instead of indexing the owner table
// with it.
func TestBogusFrontierIsALegFailure(t *testing.T) {
	g := testGraph(40, 120, 3)
	m, err := shard.Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, bogus := range []string{"-1", "40", "4294967299"} {
		lying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			switch r.URL.Path {
			case "/v1/shard/search":
				fmt.Fprint(w, `{"contained":false}`)
			case "/v1/shard/expand":
				fmt.Fprintf(w, `{"members":[{"v":0,"x":0.5,"y":0.5,"adj":[]}],"frontier":[%s]}`, bogus)
			}
		}))
		rt, err := New(Config{Map: m, Shards: [][]string{{lying.URL}, {lying.URL}},
			ClientOptions: []client.Option{client.WithRetries(0)}})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(rt)
		status, env := postRaw(t, ts.URL+"/v1/query", `{"q":0,"k":1}`)
		ts.Close()
		lying.Close()
		if status != http.StatusServiceUnavailable || env.Code != wire.CodeShardUnavailable || !strings.Contains(env.Error, bogus) {
			t.Errorf("frontier [%s]: %d %+v, want 503 shard_unavailable quoting it", bogus, status, env)
		}
	}
}
