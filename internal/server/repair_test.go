package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sacsearch/internal/telemetry"
)

// TestViewOutcomesOnMetrics pins the three cache-repair counters on
// /metrics, next to sac_query_cache_hits_total and under the same algo
// label. One connection means one pooled worker, so the counts are exact: a
// first query builds its view, a member's check-in is absorbed by a repair,
// and an edge that merges two communities drops the cached one.
func TestViewOutcomesOnMetrics(t *testing.T) {
	srv := NewWithConfig("test", testGraph(), Config{Metrics: telemetry.NewRegistry()})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	post := func(route string, body map[string]any) {
		t.Helper()
		if r, out := postJSON(t, ts.URL+route, body); r.StatusCode != 200 {
			t.Fatalf("%s: %d %s", route, r.StatusCode, out)
		}
	}
	query := func() { post("/v1/query", map[string]any{"q": 0, "k": 3, "algo": "appfast"}) }
	expect := func(repairs, rebuilds, dropped int) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		for name, want := range map[string]int{
			"sac_query_view_repairs_total":          repairs,
			"sac_query_view_rebuilds_total":         rebuilds,
			"sac_query_cache_entries_dropped_total": dropped,
		} {
			if line := fmt.Sprintf("%s{algo=\"appfast\"} %d\n", name, want); !strings.Contains(string(body), line) {
				t.Errorf("/metrics lacks %q", strings.TrimSpace(line))
			}
		}
		if t.Failed() {
			t.Fatalf("/metrics:\n%s", body)
		}
	}

	query()
	expect(0, 1, 0)
	post("/v1/checkin", map[string]any{"v": 7, "x": 0.4, "y": 0.6}) // a member of 0's 3-core
	query()
	expect(1, 1, 0)
	post("/v1/checkin", map[string]any{"v": 30, "x": 0.1, "y": 0.1}) // outside it: costs nothing
	query()
	expect(1, 1, 0)
	post("/v1/edge", map[string]any{"u": 0, "v": 30, "op": "insert"}) // clique 5 joins
	query()
	expect(1, 2, 1)
}
