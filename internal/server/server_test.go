package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"sacsearch/internal/core"
	"sacsearch/internal/gen"
	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
	"sacsearch/internal/store"
	"sacsearch/internal/telemetry"
	"sacsearch/internal/wire"
)

// testGraph plants a handful of spatial cliques; every vertex has a tight
// community for k up to 4.
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

func newTestServer(t *testing.T) (*httptest.Server, *graph.Graph) {
	t.Helper()
	g := testGraph()
	srv := New("test", g)
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, g
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func getJSON(t *testing.T, url string, into any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func TestHealth(t *testing.T) {
	ts, g := newTestServer(t)
	var out struct {
		Status   string `json:"status"`
		Dataset  string `json:"dataset"`
		Vertices int    `json:"vertices"`
		Edges    int    `json:"edges"`
	}
	resp := getJSON(t, ts.URL+"/v1/health", &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if out.Status != "ok" || out.Dataset != "test" || out.Vertices != g.NumVertices() || out.Edges != g.NumEdges() {
		t.Fatalf("health = %+v", out)
	}
}

func TestAlgorithms(t *testing.T) {
	ts, _ := newTestServer(t)
	var out []map[string]any
	resp := getJSON(t, ts.URL+"/v1/algorithms", &out)
	if resp.StatusCode != http.StatusOK || len(out) != 6 {
		t.Fatalf("algorithms: status=%d n=%d", resp.StatusCode, len(out))
	}
}

func TestVertex(t *testing.T) {
	ts, g := newTestServer(t)
	var out struct {
		ID     graph.V `json:"id"`
		X      float64 `json:"x"`
		Y      float64 `json:"y"`
		Degree int     `json:"degree"`
		Core   int     `json:"core"`
	}
	resp := getJSON(t, ts.URL+"/v1/vertex/3", &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if out.ID != 3 || out.Degree != g.Degree(3) || out.Core < 4 {
		t.Fatalf("vertex = %+v", out)
	}
	if resp := getJSON(t, ts.URL+"/v1/vertex/9999", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown vertex status = %d", resp.StatusCode)
	}
	// A malformed id is a syntax error (400), not a miss (404).
	if resp := getJSON(t, ts.URL+"/v1/vertex/abc", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage vertex status = %d", resp.StatusCode)
	}
}

func TestQueryAlgorithms(t *testing.T) {
	ts, g := newTestServer(t)
	s := core.NewSearcher(g)
	for _, algo := range []string{"", "appfast", "appinc", "appacc", "exact+", "exact"} {
		resp, body := postJSON(t, ts.URL+"/v1/query", wire.Query{Q: 1, K: 4, Algo: algo})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("algo %q: status %d body %s", algo, resp.StatusCode, body)
		}
		var out wire.Result
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("algo %q: %v", algo, err)
		}
		if len(out.Members) == 0 || out.MCC.R < 0 {
			t.Fatalf("algo %q: response %+v", algo, out)
		}
		// Every returned community must contain q and be feasible.
		found := false
		for _, v := range out.Members {
			if v == 1 {
				found = true
			}
		}
		if !found {
			t.Fatalf("algo %q: community misses q: %v", algo, out.Members)
		}
	}
	// θ-SAC with an explicit radius.
	want, err := s.ThetaSAC(1, 4, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/query", wire.Query{Q: 1, K: 4, Algo: "theta", Theta: core.Float(0.2)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("theta: status %d body %s", resp.StatusCode, body)
	}
	var out wire.Result
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Members) != len(want.Members) {
		t.Fatalf("theta members = %v, want %v", out.Members, want.Members)
	}
}

func TestQueryErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	// Unknown algorithm: a validation error, 400 with the registry's code.
	resp, body := postJSON(t, ts.URL+"/v1/query", wire.Query{Q: 1, K: 4, Algo: "bogus"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus algo status = %d", resp.StatusCode)
	}
	var envelope wire.Error
	if err := json.Unmarshal(body, &envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Code != core.ErrCodeUnknownAlgorithm || envelope.Error == "" {
		t.Fatalf("bogus algo envelope = %+v", envelope)
	}
	// θ without a radius.
	resp, _ = postJSON(t, ts.URL+"/v1/query", wire.Query{Q: 1, K: 4, Algo: "theta"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("theta without radius status = %d", resp.StatusCode)
	}
	// No community for absurd k.
	resp, _ = postJSON(t, ts.URL+"/v1/query", wire.Query{Q: 1, K: 40})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("k=40 status = %d", resp.StatusCode)
	}
	// Malformed JSON.
	r, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON status = %d", r.StatusCode)
	}
	// Wrong method.
	if resp := getJSON(t, ts.URL+"/v1/query", nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/query status = %d", resp.StatusCode)
	}
}

func TestBatch(t *testing.T) {
	ts, _ := newTestServer(t)
	req := wire.BatchRequest{Workers: 2}
	for _, q := range []int64{1, 7, 13, 1} { // includes a duplicate
		req.Queries = append(req.Queries, wire.BatchQuery{Q: q, K: 4})
	}
	resp, body := postJSON(t, ts.URL+"/v1/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d body %s", resp.StatusCode, body)
	}
	var out wire.BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Items) != 4 {
		t.Fatalf("items = %d, want 4", len(out.Items))
	}
	for i, it := range out.Items {
		if it.Error != "" {
			t.Fatalf("item %d: %s", i, it.Error)
		}
		if len(it.Members) == 0 {
			t.Fatalf("item %d: empty members", i)
		}
	}
	// Batch with a failing query keeps the others.
	req.Queries[1].Q = 9999
	resp, body = postJSON(t, ts.URL+"/v1/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mixed batch status = %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Items[1].Error == "" {
		t.Fatal("invalid query did not error")
	}
	if out.Items[0].Error != "" || out.Items[2].Error != "" {
		t.Fatal("valid queries infected by the failing one")
	}
	// Empty batch.
	resp, _ = postJSON(t, ts.URL+"/v1/batch", wire.BatchRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch status = %d", resp.StatusCode)
	}
	// Unknown algorithm.
	req2 := wire.BatchRequest{Algo: "bogus"}
	req2.Queries = req.Queries[:1]
	resp, _ = postJSON(t, ts.URL+"/v1/batch", req2)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus batch algo status = %d", resp.StatusCode)
	}
}

// TestBatchItemsObserved: a batch item is a search like a single query, so
// a batch of N distinct valid items raises sac_query_duration_seconds_count
// by N under the batch's algorithm.
func TestBatchItemsObserved(t *testing.T) {
	srv := NewWithConfig("test", testGraph(), Config{Metrics: telemetry.NewRegistry(), ServeMetrics: true})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	const count = `sac_query_duration_seconds_count{algo="appinc"}`
	observed := func() float64 {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		text, _ := io.ReadAll(resp.Body)
		return metricValue(t, string(text), count)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/query", wire.Query{Q: 1, K: 4, Algo: "appinc"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	before := observed()
	req := wire.BatchRequest{Algo: "appinc"}
	for _, q := range []int64{1, 7, 13, 19, 25} {
		req.Queries = append(req.Queries, wire.BatchQuery{Q: q, K: 4})
	}
	if resp, body := postJSON(t, ts.URL+"/v1/batch", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	if got := observed() - before; got != float64(len(req.Queries)) {
		t.Fatalf("a batch of %d distinct items raised %s by %v", len(req.Queries), count, got)
	}
}

// TestBatchWorkersClamped pins the bound on the client-supplied fan-out:
// "workers" far above GOMAXPROCS must not size the worker set — every
// worker is a pooled searcher clone with its own caches — and the batch
// still answers every item.
func TestBatchWorkersClamped(t *testing.T) {
	limit := runtime.GOMAXPROCS(0)
	// Queries slow enough (a 3000-vertex graph, every view cold) that an
	// unclamped run has all its workers holding a clone at once.
	b := gen.SocialGraph(3000, 13000, 5)
	gen.PlaceSpatial(b, 0.03, 0.08, 6)
	srv := New("test", b.Build())
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	req := wire.BatchRequest{Workers: 100000}
	for i := 0; i < 8*limit+16; i++ { // distinct vertices: none deduplicated away
		req.Queries = append(req.Queries, wire.BatchQuery{Q: int64(i * 7), K: 3})
	}
	resp, body := postJSON(t, ts.URL+"/v1/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d body %s", resp.StatusCode, body)
	}
	var out wire.BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Items) != len(req.Queries) {
		t.Fatalf("items = %d, want %d", len(out.Items), len(req.Queries))
	}
	var health struct {
		PoolClones int `json:"poolClones"`
	}
	getJSON(t, ts.URL+"/v1/health", &health)
	if health.PoolClones < 1 || health.PoolClones > limit {
		t.Fatalf("batch of %d queries with workers=100000 made %d pool clones, want 1..GOMAXPROCS (%d)",
			len(req.Queries), health.PoolClones, limit)
	}
}

func TestCheckinMovesCommunities(t *testing.T) {
	ts, g := newTestServer(t)
	// Query before the move.
	_, body := postJSON(t, ts.URL+"/v1/query", wire.Query{Q: 0, K: 4, Algo: "exact+"})
	var before wire.Result
	if err := json.Unmarshal(body, &before); err != nil {
		t.Fatal(err)
	}
	// Teleport q across the square.
	resp, _ := postJSON(t, ts.URL+"/v1/checkin", wire.CheckinRequest{V: 0, X: 0.99, Y: 0.99})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkin status = %d", resp.StatusCode)
	}
	if loc := g.Loc(0); loc.X != 0.99 || loc.Y != 0.99 {
		t.Fatalf("location not applied: %v", loc)
	}
	// The community's MCC must now be different (q moved away from its
	// clique, so the circle covering clique+q grows).
	_, body = postJSON(t, ts.URL+"/v1/query", wire.Query{Q: 0, K: 4, Algo: "exact+"})
	var after wire.Result
	if err := json.Unmarshal(body, &after); err != nil {
		t.Fatal(err)
	}
	if after.MCC.R <= before.MCC.R {
		t.Fatalf("MCC radius did not grow after teleport: %v -> %v", before.MCC.R, after.MCC.R)
	}
	// Unknown vertex.
	resp, _ = postJSON(t, ts.URL+"/v1/checkin", wire.CheckinRequest{V: 9999, X: 0.5, Y: 0.5})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown checkin status = %d", resp.StatusCode)
	}
}

// Concurrent queries and check-ins must not race (run with -race) and every
// response must be a valid community.
func TestConcurrentQueriesAndCheckins(t *testing.T) {
	ts, _ := newTestServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if w%2 == 0 {
					q := graph.V((w*10 + i) % 36)
					buf, _ := json.Marshal(wire.Query{Q: int64(q), K: 4})
					resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(buf))
					if err != nil {
						errs <- err
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
						errs <- fmt.Errorf("query status %d", resp.StatusCode)
						return
					}
				} else {
					buf, _ := json.Marshal(wire.CheckinRequest{V: int64(i % 36), X: 0.5, Y: 0.5})
					resp, err := http.Post(ts.URL+"/v1/checkin", "application/json", bytes.NewReader(buf))
					if err != nil {
						errs <- err
						return
					}
					resp.Body.Close()
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// telescopeGraph nests triangles through q = 0 at radii 0.10, 0.11, ...,
// 0.15: pair i sits at distance d_i from q with an edge between its two
// vertices, so every prefix {q, pairs 0..i} is feasible for k = 2 with a
// distinct community. AppFast's alpha cut stops at the 7-member community
// for εF = 0.5 but refines to the innermost triangle for εF = 0 — the
// observable that pins explicit-zero epsilons not being coerced to defaults.
func telescopeGraph() *graph.Graph {
	const pairs = 6
	b := graph.NewBuilder(1 + 2*pairs)
	b.SetLoc(0, geom.Point{X: 0.5, Y: 0.5})
	for i := 0; i < pairs; i++ {
		d := 0.10 + 0.01*float64(i)
		a, c := graph.V(1+2*i), graph.V(2+2*i)
		thA := float64(i) * 0.5
		thC := thA + 0.17
		b.SetLoc(a, geom.Point{X: 0.5 + d*math.Cos(thA), Y: 0.5 + d*math.Sin(thA)})
		b.SetLoc(c, geom.Point{X: 0.5 + d*math.Cos(thC), Y: 0.5 + d*math.Sin(thC)})
		b.AddEdge(0, a)
		b.AddEdge(0, c)
		b.AddEdge(a, c)
	}
	return b.Build()
}

// TestQueryExplicitZeroEpsF pins the wire semantics satellite: an absent
// epsF means the 0.5 default, while an explicit 0 must reach AppFast(0)
// instead of being coerced back to the default.
func TestQueryExplicitZeroEpsF(t *testing.T) {
	srv := New("telescope", telescopeGraph())
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	_, body := postJSON(t, ts.URL+"/v1/query", wire.Query{Q: 0, K: 2})
	var def wire.Result
	if err := json.Unmarshal(body, &def); err != nil {
		t.Fatal(err)
	}
	zero := 0.0
	_, body = postJSON(t, ts.URL+"/v1/query", wire.Query{Q: 0, K: 2, EpsF: &zero})
	var exact wire.Result
	if err := json.Unmarshal(body, &exact); err != nil {
		t.Fatal(err)
	}
	if len(def.Members) != 7 {
		t.Fatalf("default epsF members = %v, want the 7-member alpha-cut community", def.Members)
	}
	if len(exact.Members) != 3 {
		t.Fatalf("epsF=0 members = %v, want the innermost triangle", exact.Members)
	}
	if exact.MCC.R >= def.MCC.R {
		t.Fatalf("epsF=0 radius %v not tighter than default %v", exact.MCC.R, def.MCC.R)
	}

	// The batch path carries the same distinction in its template's EpsF pointer.
	mkBatch := func(epsF *float64) wire.BatchRequest {
		req := wire.BatchRequest{EpsF: epsF}
		req.Queries = append(req.Queries, wire.BatchQuery{Q: 0, K: 2})
		return req
	}
	var out wire.BatchResponse
	_, body = postJSON(t, ts.URL+"/v1/batch", mkBatch(nil))
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Items) != 1 || len(out.Items[0].Members) != 7 {
		t.Fatalf("batch default epsF = %+v, want 7 members", out.Items)
	}
	_, body = postJSON(t, ts.URL+"/v1/batch", mkBatch(&zero))
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Items) != 1 || len(out.Items[0].Members) != 3 {
		t.Fatalf("batch epsF=0 = %+v, want 3 members", out.Items)
	}
}

// TestNonFiniteInputsRejected covers the NaN/Inf validation satellite:
// check-ins and epsilons that would silently poison distance sorts and MCC
// computation come back as 400s.
func TestNonFiniteInputsRejected(t *testing.T) {
	ts, g := newTestServer(t)
	before := g.Loc(3)
	for _, bad := range []wire.CheckinRequest{
		{V: 3, X: math.NaN(), Y: 0.5},
		{V: 3, X: 0.5, Y: math.NaN()},
		{V: 3, X: math.Inf(1), Y: 0.5},
		{V: 3, X: 0.5, Y: math.Inf(-1)},
	} {
		// wire.CheckinRequest marshals NaN/Inf illegally via encoding/json, so
		// build the body by hand the way a hostile client would.
		body := fmt.Sprintf(`{"v":%d,"x":%s,"y":%s}`, bad.V, jsonFloat(bad.X), jsonFloat(bad.Y))
		resp, err := http.Post(ts.URL+"/v1/checkin", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("checkin %s: status = %d, want 400", body, resp.StatusCode)
		}
	}
	if g.Loc(3) != before {
		t.Fatalf("rejected checkin still moved the vertex: %v", g.Loc(3))
	}
	// Non-finite epsilons are rejected on both endpoints.
	resp, err := http.Post(ts.URL+"/v1/query", "application/json",
		bytes.NewReader([]byte(`{"q":1,"k":4,"epsF":1e999}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("query with epsF=Inf accepted")
	}
	resp, err = http.Post(ts.URL+"/v1/batch", "application/json",
		bytes.NewReader([]byte(`{"queries":[{"q":1,"k":4}],"epsA":1e999,"algo":"appacc"}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("batch with epsA=Inf status = %d, want 400", resp.StatusCode)
	}
}

// jsonFloat renders a float the way lenient JSON producers do, including the
// out-of-spec NaN/Infinity spellings Go's decoder rejects — so non-finite
// values are smuggled in as huge exponents instead.
func jsonFloat(f float64) string {
	switch {
	case math.IsNaN(f):
		return `1e999` // decodes to +Inf; NaN itself cannot pass the decoder
	case math.IsInf(f, 1):
		return `1e999`
	case math.IsInf(f, -1):
		return `-1e999`
	default:
		return fmt.Sprintf("%g", f)
	}
}

// TestEdgeEndpoint drives friendship churn through the API: deleting a
// clique edge destroys the k=5 community, re-inserting restores it, and the
// pooled workers' caches follow along (no stale communities).
func TestEdgeEndpoint(t *testing.T) {
	ts, g := newTestServer(t)
	query := func() (*http.Response, wire.Result) {
		resp, body := postJSON(t, ts.URL+"/v1/query", wire.Query{Q: 0, K: 5, Algo: "appinc"})
		var out wire.Result
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatal(err)
			}
		}
		return resp, out
	}
	// Clique 0 (vertices 0..5) is a 6-clique: the k=5 community exists and
	// is exactly the clique.
	resp, before := query()
	if resp.StatusCode != http.StatusOK || len(before.Members) != 6 {
		t.Fatalf("pre-churn query: status=%d members=%v", resp.StatusCode, before.Members)
	}

	edge := func(u, v int64, op string) (int, wire.EdgeResult) {
		resp, body := postJSON(t, ts.URL+"/v1/edge", wire.EdgeRequest{U: u, V: v, Op: op})
		var out wire.EdgeResult
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, out
	}

	m0 := g.NumEdges()
	status, out := edge(0, 1, "delete")
	if status != http.StatusOK || !out.Changed || out.Edges != m0-1 {
		t.Fatalf("delete: status=%d out=%+v (m0=%d)", status, out, m0)
	}
	// Vertices 0 and 1 now have degree 4 inside the clique: no 5-core.
	if resp, _ := query(); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("query after delete: status=%d, want 404", resp.StatusCode)
	}
	// Deleting again is a no-op.
	if status, out = edge(0, 1, "delete"); status != http.StatusOK || out.Changed {
		t.Fatalf("double delete: status=%d out=%+v", status, out)
	}
	// Re-insert restores the original community.
	if status, out = edge(0, 1, "insert"); status != http.StatusOK || !out.Changed || out.Edges != m0 {
		t.Fatalf("insert: status=%d out=%+v", status, out)
	}
	resp, after := query()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after re-insert: status=%d", resp.StatusCode)
	}
	if len(after.Members) != len(before.Members) || after.MCC != before.MCC {
		t.Fatalf("community not restored: %v vs %v", after.Members, before.Members)
	}

	// Error paths: unknown vertex, self-loop, unknown op.
	if status, _ = edge(0, 9999, "insert"); status != http.StatusNotFound {
		t.Fatalf("unknown vertex: status=%d", status)
	}
	if status, _ = edge(2, 2, "insert"); status != http.StatusBadRequest {
		t.Fatalf("self-loop: status=%d", status)
	}
	if status, _ = edge(0, 1, "frobnicate"); status != http.StatusBadRequest {
		t.Fatalf("unknown op: status=%d", status)
	}
}

// TestHealthSnapshotFields pins the operator-facing health satellite: the
// endpoint reports the published snapshot's epochs and sequence, the writer
// queue depth and the worker-pool size, and the epochs advance with writes.
func TestHealthSnapshotFields(t *testing.T) {
	ts, _ := newTestServer(t)
	type health struct {
		SnapshotSeq   uint64 `json:"snapshotSeq"`
		LocEpoch      uint64 `json:"locEpoch"`
		TopoEpoch     uint64 `json:"topoEpoch"`
		WriterQueue   *int   `json:"writerQueue"`
		PoolClones    *int64 `json:"poolClones"`
		EventsApplied uint64 `json:"eventsApplied"`
	}
	var before health
	getJSON(t, ts.URL+"/v1/health", &before)
	if before.SnapshotSeq < 1 || before.WriterQueue == nil || before.PoolClones == nil {
		t.Fatalf("health missing snapshot fields: %+v", before)
	}
	// A check-in and an edge update must advance their epochs and the
	// sequence number.
	postJSON(t, ts.URL+"/v1/checkin", wire.CheckinRequest{V: 2, X: 0.4, Y: 0.4})
	postJSON(t, ts.URL+"/v1/edge", wire.EdgeRequest{U: 0, V: 30, Op: "insert"})
	var after health
	getJSON(t, ts.URL+"/v1/health", &after)
	if after.SnapshotSeq <= before.SnapshotSeq {
		t.Fatalf("snapshotSeq did not advance: %d -> %d", before.SnapshotSeq, after.SnapshotSeq)
	}
	if after.LocEpoch <= before.LocEpoch || after.TopoEpoch <= before.TopoEpoch {
		t.Fatalf("epochs did not advance: %+v -> %+v", before, after)
	}
	if after.EventsApplied < 2 {
		t.Fatalf("eventsApplied = %d, want ≥ 2", after.EventsApplied)
	}
}

// TestOversizedBodyRejected pins the MaxBytesReader satellite: a POST body
// over the configured cap comes back as 413 without being decoded, on every
// mutating and querying endpoint.
func TestOversizedBodyRejected(t *testing.T) {
	srv := NewWithConfig("test", testGraph(), Config{MaxBodyBytes: 512})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	big := wire.BatchRequest{}
	for i := 0; i < 2000; i++ {
		big.Queries = append(big.Queries, wire.BatchQuery{Q: int64(i % 36), K: 4})
	}
	for _, ep := range []string{"/v1/batch", "/v1/query", "/v1/checkin", "/v1/edge"} {
		resp, _ := postJSON(t, ts.URL+ep, big)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s oversized body: status = %d, want 413", ep, resp.StatusCode)
		}
	}
	// Within the cap still works.
	resp, body := postJSON(t, ts.URL+"/v1/query", wire.Query{Q: 1, K: 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small body after cap: status = %d body %s", resp.StatusCode, body)
	}
}

// TestQueryDeadline pins the per-request deadline: with an immediately
// expiring budget, queries come back 503 as ErrCanceled instead of running
// to completion.
func TestQueryDeadline(t *testing.T) {
	srv := NewWithConfig("test", testGraph(), Config{QueryTimeout: time.Nanosecond})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	resp, body := postJSON(t, ts.URL+"/v1/query", wire.Query{Q: 1, K: 4, Algo: "exact"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("expired deadline: status = %d body %s, want 503", resp.StatusCode, body)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("expired deadline: body %s", body)
	}
	// Batches report the same way: 503, not 200 with per-item errors.
	req := wire.BatchRequest{}
	req.Queries = append(req.Queries, wire.BatchQuery{Q: int64(1), K: 4})
	resp, body = postJSON(t, ts.URL+"/v1/batch", req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("expired batch deadline: status = %d body %s, want 503", resp.StatusCode, body)
	}
}

// TestConcurrentQueriesCheckinsAndEdges extends the concurrency test with
// topology churn: queries, check-ins and edge updates in flight together
// must not race (run with -race), and queries must only ever see coherent
// snapshots (200 or 404).
func TestConcurrentQueriesCheckinsAndEdges(t *testing.T) {
	ts, _ := newTestServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 96)
	for w := 0; w < 9; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				switch w % 3 {
				case 0: // queries
					q := graph.V((w*12 + i) % 36)
					buf, _ := json.Marshal(wire.Query{Q: int64(q), K: 4})
					resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(buf))
					if err != nil {
						errs <- err
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
						errs <- fmt.Errorf("query status %d", resp.StatusCode)
						return
					}
				case 1: // check-ins
					buf, _ := json.Marshal(wire.CheckinRequest{V: int64(i % 36), X: 0.5, Y: 0.5})
					resp, err := http.Post(ts.URL+"/v1/checkin", "application/json", bytes.NewReader(buf))
					if err != nil {
						errs <- err
						return
					}
					resp.Body.Close()
				case 2: // edge churn: toggle long-range edges between cliques
					op := "insert"
					if i%2 == 1 {
						op = "delete"
					}
					u := int64((w + i) % 6)
					v := int64(18 + (w+i)%6)
					buf, _ := json.Marshal(wire.EdgeRequest{U: u, V: v, Op: op})
					resp, err := http.Post(ts.URL+"/v1/edge", "application/json", bytes.NewReader(buf))
					if err != nil {
						errs <- err
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("edge status %d", resp.StatusCode)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestDurableServer serves over a store: health gains the durability stats,
// and a write acknowledged over HTTP survives a server restart from the same
// data dir.
func TestDurableServer(t *testing.T) {
	dir := t.TempDir()
	open := func() (*httptest.Server, *Server) {
		st, err := store.Open(dir, store.Options{Init: testGraph()})
		if err != nil {
			t.Fatal(err)
		}
		srv := NewWithStore("durable-test", st, Config{})
		ts := httptest.NewServer(srv)
		return ts, srv
	}
	ts, srv := open()

	var health map[string]any
	getJSON(t, ts.URL+"/v1/health", &health)
	if health["durable"] != true {
		t.Fatalf("health durable = %v", health["durable"])
	}
	for _, key := range []string{"walSegments", "walBytes", "walLastSeq", "lastCheckpointSeq", "fsyncPolicy"} {
		if _, ok := health[key]; !ok {
			t.Fatalf("health misses %q: %v", key, health)
		}
	}
	if health["fsyncPolicy"] != "always" {
		t.Fatalf("fsyncPolicy = %v", health["fsyncPolicy"])
	}

	// Acknowledged writes: a check-in and an edge insert.
	if resp, body := postJSON(t, ts.URL+"/v1/checkin", wire.CheckinRequest{V: 3, X: 0.25, Y: 0.75}); resp.StatusCode != http.StatusOK {
		t.Fatalf("checkin: %d %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/edge", wire.EdgeRequest{U: 0, V: 18, Op: "insert"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("edge: %d %s", resp.StatusCode, body)
	}
	getJSON(t, ts.URL+"/v1/health", &health)
	if got := health["walLastSeq"].(float64); got != 2 {
		t.Fatalf("walLastSeq after two writes = %v", got)
	}

	// Restart: close everything, reopen from the same dir.
	ts.Close()
	srv.Close()
	ts2, srv2 := open()
	defer ts2.Close()
	defer srv2.Close()

	snap := srv2.Engine().Current()
	if loc := snap.Graph().Loc(3); loc.X != 0.25 || loc.Y != 0.75 {
		t.Fatalf("check-in lost across restart: %v", loc)
	}
	if !snap.Graph().HasEdge(0, 18) {
		t.Fatal("edge lost across restart")
	}
	// In-memory servers advertise durable=false and no WAL fields.
	tsMem, _ := newTestServer(t)
	health = nil // decoding into a non-nil map merges; start clean
	getJSON(t, tsMem.URL+"/v1/health", &health)
	if health["durable"] != false {
		t.Fatalf("in-memory health durable = %v", health["durable"])
	}
	if _, ok := health["walSegments"]; ok {
		t.Fatal("in-memory health reports WAL stats")
	}
}
