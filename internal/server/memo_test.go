package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"sacsearch/internal/core"
	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
	"sacsearch/internal/httpapi"
	"sacsearch/internal/shard"
	"sacsearch/internal/snapshot"
	"sacsearch/internal/telemetry"
	"sacsearch/internal/wire"
)

// memoCounts reads sac_query_memo_total from a server's /metrics.
func memoCounts(t *testing.T, url string) (hit, miss, stored float64) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	return metricValue(t, string(text), `sac_query_memo_total{outcome="hit"}`),
		metricValue(t, string(text), `sac_query_memo_total{outcome="miss"}`),
		metricValue(t, string(text), `sac_query_memo_total{outcome="stored"}`)
}

// masked is a /v1/query body with its elapsedMicros set to 0, the one value
// a memo hit's body may differ in.
func masked(body []byte) string { return string(wire.AppendElapsed(nil, body, 0)) }

// freshBody is what a fresh searcher over g answers q with, in /v1/query's
// layout.
func freshBody(t *testing.T, g *graph.Graph, q core.Query) string {
	t.Helper()
	res, err := core.NewSearcher(g).Search(context.Background(), q)
	if err != nil {
		t.Fatalf("fresh %+v: %v", q, err)
	}
	spec, _ := core.LookupAlgo(q.Algo)
	body, err := wire.AppendResult(nil, snapshot.WireResult(spec.Name, res))
	if err != nil {
		t.Fatal(err)
	}
	return masked(body)
}

// registryQuery is a valid query for spec at (q, k): its required
// parameters set, the rest left to their defaults.
func registryQuery(spec *core.AlgoSpec, q graph.V, k int) core.Query {
	cq := core.Query{Algo: spec.Name, Q: q, K: k}
	for _, p := range spec.Params {
		if p.Required {
			if err := cq.SetParam(p.Name, 0.2); err != nil {
				panic(err)
			}
		}
	}
	return cq
}

func newMemoServer(t *testing.T, g *graph.Graph, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Metrics = telemetry.NewRegistry()
	srv := NewWithConfig("test", g, cfg)
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestMemoHitMatchesFreshSearch: for every registry algorithm, the second
// and third identical queries on one snapshot are memo hits (θ-SAC's, which
// keeps no answer, misses), through /v1/query, a /v1/batch item and a
// certified /v1/shard/search leg alike, and answer what a fresh searcher
// does, stats included, except elapsedMicros.
func TestMemoHitMatchesFreshSearch(t *testing.T) {
	g := testGraph()
	_, ts := newMemoServer(t, testGraph(), Config{})
	m, err := shard.Partition(testGraph(), 2)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := shard.Subgraph(testGraph(), m, 0)
	if err != nil {
		t.Fatal(err)
	}
	sv, err := shard.NewServing(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, shardTS := newMemoServer(t, sub, Config{Shard: sv})
	var owned graph.V = -1
	for v := range graph.V(g.NumVertices()) {
		if sv.Owns(v) {
			owned = v
			break
		}
	}

	var hits, kept float64
	for _, spec := range core.Algorithms() {
		repeats := float64(2) // the hits of a key asked three times
		if spec.Name == "theta" {
			repeats = 0
		}
		kept += repeats
		q := registryQuery(spec, 1, 4)
		want := freshBody(t, g, q)
		for i := 1; i <= 3; i++ {
			resp, body := postJSON(t, ts.URL+"/v1/query", httpapi.WireQuery(q))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s query %d: %d %s", spec.Name, i, resp.StatusCode, body)
			}
			if got := masked(body); got != want {
				t.Fatalf("%s query %d answers\n%s\nfresh\n%s", spec.Name, i, got, want)
			}
		}
		if hit, _, _ := memoCounts(t, ts.URL); hit != hits+repeats {
			t.Fatalf("%s: the second and third queries were not memo hits (hits %v, were %v)", spec.Name, hit, hits)
		}
		hits += repeats

		var fresh wire.Result
		if err := wire.DecodeResult([]byte(want), &fresh); err != nil {
			t.Fatal(err)
		}
		wq := httpapi.WireQuery(q)
		req := wire.BatchRequest{Algo: wq.Algo, EpsF: wq.EpsF, EpsA: wq.EpsA, Theta: wq.Theta,
			Queries: []wire.BatchQuery{{Q: 7, K: 4}, {Q: wq.Q, K: wq.K}}}
		wantHits := hits + repeats
		for i := 1; i <= 2; i++ {
			resp, body := postJSON(t, ts.URL+"/v1/batch", req)
			var out wire.BatchResponse
			if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &out) != nil {
				t.Fatalf("%s batch %d: %d %s", spec.Name, i, resp.StatusCode, body)
			}
			if it := out.Items[1]; !slices.Equal(it.Members, fresh.Members) || it.MCC != fresh.MCC {
				t.Fatalf("%s batch %d: item %+v, fresh %+v", spec.Name, i, it, fresh)
			}
			if i == 1 && out.Items[0].Error == "" && repeats > 0 {
				wantHits++ // the first item's second sighting, in the second batch
			}
		}
		if hit, _, _ := memoCounts(t, ts.URL); hit != wantHits {
			t.Fatalf("%s: the batch items were not memo hits (hits %v, were %v, want %v)", spec.Name, hit, hits, wantHits)
		}
		hits = wantHits

		sq := registryQuery(spec, owned, 4)
		wantLeg := freshBody(t, sub, sq)
		for i := 1; i <= 3; i++ {
			resp, body := postJSON(t, shardTS.URL+"/v1/shard/search", httpapi.WireQuery(sq))
			var out wire.ShardSearchResult
			if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &out) != nil {
				t.Fatalf("%s shard leg %d: %d %s", spec.Name, i, resp.StatusCode, body)
			}
			if !out.Contained || out.Result == nil {
				t.Fatalf("%s shard leg %d on vertex %d is not certified: %s", spec.Name, i, owned, body)
			}
			got, err := wire.AppendResult(nil, out.Result)
			if err != nil {
				t.Fatal(err)
			}
			if masked(got) != wantLeg {
				t.Fatalf("%s shard leg %d answers\n%s\nfresh\n%s", spec.Name, i, masked(got), wantLeg)
			}
		}
	}
	if hit, _, _ := memoCounts(t, shardTS.URL); hit != kept {
		t.Fatalf("shard legs hit the memo %v times, want two per algorithm but θ-SAC", hit)
	}
}

// TestMemoMissesAfterWrites: a check-in that moves a member and an edge op
// inside the community each publish a new snapshot on which no answer is
// held yet, so the next query after either is a search, and answers what a
// fresh searcher over the written graph does.
func TestMemoMissesAfterWrites(t *testing.T) {
	mirror := testGraph()
	_, ts := newMemoServer(t, testGraph(), Config{})
	q := core.Query{Algo: "appfast", Q: 1, K: 3}
	ask := func(want string) {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/v1/query", httpapi.WireQuery(q))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query: %d %s", resp.StatusCode, body)
		}
		if got := masked(body); got != want {
			t.Fatalf("query answers\n%s\nfresh\n%s", got, want)
		}
	}
	expect := func(hit, miss float64) {
		t.Helper()
		if h, m, _ := memoCounts(t, ts.URL); h != hit || m != miss {
			t.Fatalf("memo hits %v misses %v, want %v and %v", h, m, hit, miss)
		}
	}
	for range 3 {
		ask(freshBody(t, mirror, q))
	}
	expect(2, 1)

	// A member of 1's community moves away: the answer changes.
	w := graph.Write{Kind: graph.WriteCheckin, V: 2, Loc: geom.Point{X: 0.9, Y: 0.1}}
	if _, err := mirror.Apply(w); err != nil {
		t.Fatal(err)
	}
	before := freshBody(t, testGraph(), q)
	if after := freshBody(t, mirror, q); after == before {
		t.Fatal("the check-in does not change the answer; the test shows nothing")
	}
	if resp, body := postJSON(t, ts.URL+"/v1/checkin", wire.CheckinRequest{V: 2, X: 0.9, Y: 0.1}); resp.StatusCode != http.StatusOK {
		t.Fatalf("checkin: %d %s", resp.StatusCode, body)
	}
	ask(freshBody(t, mirror, q))
	expect(2, 2)
	for range 2 {
		ask(freshBody(t, mirror, q))
	}
	expect(4, 2)

	// An edge from 1 to a far vertex: the snapshot after it searches again.
	if _, err := mirror.Apply(graph.Write{Kind: graph.WriteRemoveEdge, V: 1, W: 3}); err != nil {
		t.Fatal(err)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/edge", wire.EdgeRequest{U: 1, V: 3, Op: "delete"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("edge: %d %s", resp.StatusCode, body)
	}
	ask(freshBody(t, mirror, q))
	expect(4, 3)
}

// TestMemoHitAfterStandingEvaluation: after a write, the standing query's
// evaluation answers its key first, on the new snapshot, and stores the
// answer there, so the first /v1/query of the same key on that snapshot is a
// memo hit — and equals a fresh search.
func TestMemoHitAfterStandingEvaluation(t *testing.T) {
	mirror := testGraph()
	_, ts := newMemoServer(t, testGraph(), Config{})
	q := core.Query{Algo: "appfast", Q: 1, K: 3}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	resp, br := openStream(t, ctx, ts.URL+"/v1/subscribe?"+httpapi.WireQuery(q).Values().Encode(), "")
	defer resp.Body.Close()
	if f := readFrames(t, br, 1, 5*time.Second); f[0].event != "init" {
		t.Fatalf("first frame %+v, want init", f[0])
	}

	// A member of 1's community moves away: the answer changes, so the
	// evaluation delivers a delta, after it stored its answer.
	w := graph.Write{Kind: graph.WriteCheckin, V: 2, Loc: geom.Point{X: 0.9, Y: 0.1}}
	if _, err := mirror.Apply(w); err != nil {
		t.Fatal(err)
	}
	if r, body := postJSON(t, ts.URL+"/v1/checkin", wire.CheckinRequest{V: 2, X: 0.9, Y: 0.1}); r.StatusCode != http.StatusOK {
		t.Fatalf("checkin: %d %s", r.StatusCode, body)
	}
	if f := readFrames(t, br, 1, 5*time.Second); f[0].event != "delta" {
		t.Fatalf("frame after the check-in %+v, want delta", f[0])
	}
	hit, miss, _ := memoCounts(t, ts.URL)
	r, body := postJSON(t, ts.URL+"/v1/query", httpapi.WireQuery(q))
	if r.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", r.StatusCode, body)
	}
	if got, want := masked(body), freshBody(t, mirror, q); got != want {
		t.Fatalf("query answers\n%s\nfresh\n%s", got, want)
	}
	if h, m, _ := memoCounts(t, ts.URL); h != hit+1 || m != miss {
		t.Fatalf("the first query after the evaluation: memo hits %v → %v, misses %v → %v; want one more hit", hit, h, miss, m)
	}
}

// TestMemoKeepsValidation: once an answer is stored, a query naming it by an
// alias, by its canonical name in other case, with its default parameter
// spelled out or with a timeout is a hit, and every request validation
// refuses still gets the 4xx it got before there was a memo.
func TestMemoKeepsValidation(t *testing.T) {
	_, ts := newMemoServer(t, testGraph(), Config{})
	stored := wire.Query{Q: 1, K: 4, Algo: "exact+"}
	for range 2 {
		if resp, body := postJSON(t, ts.URL+"/v1/query", stored); resp.StatusCode != http.StatusOK {
			t.Fatalf("query: %d %s", resp.StatusCode, body)
		}
	}
	if _, _, n := memoCounts(t, ts.URL); n != 1 {
		t.Fatalf("stored %v answers after two identical queries, want 1", n)
	}
	for i, q := range []wire.Query{
		stored,
		{Q: 1, K: 4, Algo: "exactplus"},
		{Q: 1, K: 4, Algo: "EXACT+", EpsA: core.Float(1e-3)},
		{Q: 1, K: 4, Algo: "exact+", Structure: "kcore", TimeoutMillis: 5000},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/query", q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%+v: %d %s", q, resp.StatusCode, body)
		}
		if hit, _, _ := memoCounts(t, ts.URL); hit != float64(i+2) {
			t.Fatalf("%+v was not a memo hit", q)
		}
	}
	for _, c := range []struct {
		q      wire.Query
		status int
		code   string
	}{
		{wire.Query{Q: 1, K: 4, Algo: "exactplus", Structure: "ktruss"}, http.StatusBadRequest, core.ErrCodeStructureMismatch},
		{wire.Query{Q: 1, K: 4, Algo: "exact+", Structure: "kring"}, http.StatusBadRequest, core.ErrCodeStructureMismatch},
		{wire.Query{Q: 36, K: 4, Algo: "exact+"}, http.StatusBadRequest, core.ErrCodeInvalidQuery},
		{wire.Query{Q: 4294967297, K: 4, Algo: "exact+"}, http.StatusBadRequest, core.ErrCodeInvalidQuery},
		{wire.Query{Q: 1, K: 4, Algo: "exact+", EpsF: core.Float(0.5)}, http.StatusBadRequest, core.ErrCodeInvalidParam},
		{wire.Query{Q: 1, K: 4, Algo: "exact+", EpsA: core.Float(-1)}, http.StatusBadRequest, core.ErrCodeInvalidParam},
		{wire.Query{Q: 1, K: 4, Algo: "exact+", TimeoutMillis: -1}, http.StatusBadRequest, core.ErrCodeInvalidQuery},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/query", c.q)
		var e wire.Error
		if err := json.Unmarshal(body, &e); err != nil || resp.StatusCode != c.status || e.Code != c.code {
			t.Fatalf("%+v: %d %s, want %d %s", c.q, resp.StatusCode, body, c.status, c.code)
		}
	}
	if hit, _, _ := memoCounts(t, ts.URL); hit != 5 {
		t.Fatalf("memo hits %v after the refused requests, want 5", hit)
	}
}

// parentSearch is what the door ran before the memo: a pooled worker, the
// search under a span and its counters, and the answer in wire form.
func parentSearch(s *Server, ctx context.Context, snap interface {
	Get() *core.Searcher
	Put(*core.Searcher)
}, q core.Query) (*wire.Result, error) {
	worker := snap.Get()
	defer snap.Put(worker)
	ctx, span := telemetry.StartSpan(ctx, "search")
	res, err := worker.Search(ctx, q)
	span.End()
	if err != nil {
		return nil, err
	}
	spec, _ := core.LookupAlgo(q.Algo)
	span.SetAttr("algo", spec.Name)
	span.SetAttr("q", int64(q.Q))
	span.SetAttr("k", q.K)
	s.observeQuery(spec.Name, res.Stats)
	return snapshot.WireResult(spec.Name, res), nil
}

// TestMemoNeverRepeatingStream: a stream whose queries never repeat stores
// nothing, and each of its misses allocates no more than the door did before
// the memo, measured over the same stream on a twin server.
func TestMemoNeverRepeatingStream(t *testing.T) {
	var stream []core.Query
	for k := 1; k <= 4; k++ {
		for q := range graph.V(36) {
			for _, eps := range []float64{0.5, 0.25} {
				stream = append(stream, core.Query{Algo: "appfast", Q: q, K: k, EpsF: core.Float(eps)})
			}
		}
	}
	allocs := func(search func(*Server, context.Context, core.Query) error) (float64, *Server) {
		srv, _ := newMemoServer(t, testGraph(), Config{})
		next := 0
		n := testing.AllocsPerRun(len(stream)-1, func() {
			err := search(srv, context.Background(), stream[next])
			if err != nil && err != core.ErrNoCommunity {
				t.Fatal(err)
			}
			next++
		})
		return n, srv
	}
	parent := func(s *Server, ctx context.Context, q core.Query) error {
		_, err := parentSearch(s, ctx, s.Engine().Current(), q)
		return err
	}
	allocs(parent) // the first stream in a process allocates a little less
	before, _ := allocs(parent)
	after, srv := allocs(func(s *Server, ctx context.Context, q core.Query) error {
		_, err := s.search(ctx, s.Engine().Current(), q)
		return err
	})
	if after > before {
		t.Errorf("a miss allocates %v times, %v before the memo", after, before)
	}
	if n := srv.memoStored.Value(); n != 0 {
		t.Errorf("a never-repeating stream of %d queries stored %d answers", len(stream), n)
	}
	if n := srv.memoHit.Value(); n != 0 {
		t.Errorf("a never-repeating stream of %d queries hit the memo %d times", len(stream), n)
	}
}

// TestMemoHitTakesNoWorker: a hit neither takes nor clones a pooled worker,
// and its lookup in the store allocates nothing.
func TestMemoHitTakesNoWorker(t *testing.T) {
	srv, _ := newMemoServer(t, testGraph(), Config{})
	snap := srv.Engine().Current()
	q := core.Query{Algo: "appacc", Q: 7, K: 4}
	for range 2 {
		if _, err := srv.search(context.Background(), snap, q); err != nil {
			t.Fatal(err)
		}
	}
	clones := srv.Engine().PoolClones()
	// Hold every idle worker, so a hit that took one would have to clone.
	var held []*core.Searcher
	for range 2 * clones {
		held = append(held, snap.Get())
	}
	clones = srv.Engine().PoolClones()
	for range 50 {
		a, err := srv.search(context.Background(), snap, q)
		if err != nil || a.body == nil {
			t.Fatalf("not a hit: %v", err)
		}
	}
	if got := srv.Engine().PoolClones(); got != clones {
		t.Fatalf("50 hits cloned %d workers", got-clones)
	}
	for _, w := range held {
		snap.Put(w)
	}
	key, err := core.Resolve(q, snap.Graph().NumVertices(), snap.Structure())
	if err != nil {
		t.Fatal(err)
	}
	w := snap.Get()
	defer snap.Put(w)
	if n := testing.AllocsPerRun(100, func() {
		if w.Finished(key) == nil {
			t.Fatal("the stored answer is gone")
		}
	}); n != 0 {
		t.Fatalf("a memo lookup allocates %v times", n)
	}
	if hit, stored := srv.memoHit.Value(), srv.memoStored.Value(); hit != 51 || stored != 1 {
		t.Fatalf("memo hits %d stored %d, want 51 and 1", hit, stored)
	}
}

// TestMemoOnSpan: the search span says whether the memo answered.
func TestMemoOnSpan(t *testing.T) {
	srv, _ := newMemoServer(t, testGraph(), Config{})
	snap := srv.Engine().Current()
	q := core.Query{Algo: "appinc", Q: 13, K: 4}
	for i := 1; i <= 3; i++ {
		ctx, root := telemetry.StartSpan(context.Background(), "root")
		if _, err := srv.search(ctx, snap, q); err != nil {
			t.Fatal(err)
		}
		root.End()
		if tree := root.Tree(); strings.Contains(tree, "memo=hit") != (i >= 2) {
			t.Fatalf("query %d: span tree\n%s", i, tree)
		}
	}
}

// TestMemoHitOnMetrics: a hit is observed in sac_query_duration_seconds under
// its algorithm but adds nothing to the work counters, which count searches.
func TestMemoHitOnMetrics(t *testing.T) {
	_, ts := newMemoServer(t, testGraph(), Config{})
	scrape := func() string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		text, _ := io.ReadAll(resp.Body)
		return string(text)
	}
	series := []string{
		`sac_query_duration_seconds_count{algo="appacc"}`,
		`sac_query_candidate_vertices_total{algo="appacc"}`,
		`sac_query_feasibility_checks_total{algo="appacc"}`,
		`sac_query_binary_iters_total{algo="appacc"}`,
		`sac_query_cache_hits_total{algo="appacc"}`,
	}
	q := wire.Query{Q: 20, K: 4, Algo: "appacc"}
	for range 2 {
		if resp, body := postJSON(t, ts.URL+"/v1/query", q); resp.StatusCode != http.StatusOK {
			t.Fatalf("query: %d %s", resp.StatusCode, body)
		}
	}
	before := scrape()
	if resp, body := postJSON(t, ts.URL+"/v1/query", q); resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	after := scrape()
	for i, name := range series {
		want := metricValue(t, before, name)
		if i == 0 {
			want++
		}
		if got := metricValue(t, after, name); got != want {
			t.Errorf("a hit moved %s from %v to %v, want %v", name, metricValue(t, before, name), got, want)
		}
	}
	if hit := metricValue(t, after, `sac_query_memo_total{outcome="hit"}`); hit != 2 {
		t.Errorf("sac_query_memo_total{outcome=\"hit\"} = %v, want 2", hit)
	}
}
