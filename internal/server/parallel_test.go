package server

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
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

// TestQueryParallelismBudget pins the server's side of the scan budget, which
// is the machine's: with a default Config (metrics on), an Exact+ over
// /v1/query on an otherwise idle server answers the same members, MCC and δ
// at GOMAXPROCS 4 as at 1, and its scan runs on GOMAXPROCS workers — all four,
// or one (the inline scan) — which sac_query_parallelism_budget_total and
// sac_query_parallelism_effective_total both count.
func TestQueryParallelismBudget(t *testing.T) {
	var got [2]wire.Result
	for i, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
		srv := NewWithConfig("test", spreadClique(5, 64), Config{Metrics: telemetry.NewRegistry()})
		t.Cleanup(srv.Close)
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		resp, body := postJSON(t, ts.URL+"/v1/query", wire.Query{Q: 0, K: 20, Algo: "exact+", EpsA: core.Float(0.5)})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GOMAXPROCS %d: status %d body %s", procs, resp.StatusCode, body)
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
		if want := float64(procs); asked != want || ran != want {
			t.Errorf("GOMAXPROCS %d: budget_total %v, effective_total %v; want %v each", procs, asked, ran, want)
		}
	}
	if !slices.Equal(got[0].Members, got[1].Members) || got[0].MCC != got[1].MCC || got[0].Delta != got[1].Delta {
		t.Fatalf("GOMAXPROCS 4 answered %+v, GOMAXPROCS 1 %+v", got[1], got[0])
	}
}
