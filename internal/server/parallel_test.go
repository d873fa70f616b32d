package server

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"sacsearch/internal/core"
	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
	"sacsearch/internal/telemetry"
	"sacsearch/internal/wire"
)

// spreadClique is a clique of n vertices at uniform random locations. At a
// high k the smallest circle must cover k+1 scattered points, so Exact+'s F1
// is wide enough for its circle scan to fan out.
func spreadClique(seed int64, n int) *graph.Graph {
	rnd := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetLoc(graph.V(v), geom.Point{X: rnd.Float64(), Y: rnd.Float64()})
		for j := 0; j < v; j++ {
			b.AddEdge(graph.V(v), graph.V(j))
		}
	}
	return b.Build()
}

// TestQueryParallelismBudget pins the server's side of the scan budget: an
// Exact+ over /v1/query answers the same members, MCC and δ with
// QueryParallelism 4 as with 0, and the workers its scan ran on reach
// sac_query_parallelism_effective_total — all four on an otherwise idle
// server, one (the inline scan) at budget 0.
func TestQueryParallelismBudget(t *testing.T) {
	var got [2]wire.Result
	for i, budget := range []int{0, 4} {
		srv := NewWithConfig("test", spreadClique(5, 64), Config{
			QueryParallelism: budget, Metrics: telemetry.NewRegistry(),
		})
		t.Cleanup(srv.Close)
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		resp, body := postJSON(t, ts.URL+"/v1/query", wire.Query{Q: 0, K: 20, Algo: "exact+", EpsA: core.Float(0.5)})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("budget %d: status %d body %s", budget, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &got[i]); err != nil {
			t.Fatal(err)
		}
		mresp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		text, _ := io.ReadAll(mresp.Body)
		mresp.Body.Close()
		asked := metricValue(t, string(text), "sac_query_parallelism_budget_total")
		ran := metricValue(t, string(text), "sac_query_parallelism_effective_total")
		if want := float64(max(budget, 1)); asked != want || ran != want {
			t.Errorf("budget %d: budget_total %v, effective_total %v; want %v each", budget, asked, ran, want)
		}
	}
	if !slices.Equal(got[0].Members, got[1].Members) || got[0].MCC != got[1].MCC || got[0].Delta != got[1].Delta {
		t.Fatalf("budget 4 answered %+v, budget 0 %+v", got[1], got[0])
	}
}
