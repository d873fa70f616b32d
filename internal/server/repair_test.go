package server

import (
	"cmp"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"sacsearch/internal/graph"
	"sacsearch/internal/telemetry"
)

// TestViewOutcomesOnMetrics pins the cache-repair counters and the prefix
// oracle's on /metrics, next to sac_query_cache_hits_total and under the
// same algo label. One connection means one query at a time, so the counts
// are exact: a first query builds its view and its oracle, a member's
// check-in is absorbed by a view repair (the oracle's second build, from
// which it keeps what a repair needs), a non-member's costs nothing, the
// member's next move is absorbed by an oracle repair over the prefix lengths
// it crossed, and an edge that merges two communities drops the cached one.
// How the repair went does not show: a delete the certificate vouches for
// is restored — one repair, no span — and a lone check-in replayed counts
// one repair and the lengths it crossed, as the windows would have.
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
	type counts struct{ repairs, rebuilds, dropped, hits, builds, oracleRepairs int }
	expect := func(c counts, span func(int) bool) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		for name, want := range map[string]int{
			"sac_query_view_repairs_total":          c.repairs,
			"sac_query_view_rebuilds_total":         c.rebuilds,
			"sac_query_cache_entries_dropped_total": c.dropped,
			"sac_query_view_hits_total":             c.hits,
			"sac_query_oracle_builds_total":         c.builds,
			"sac_query_oracle_repairs_total":        c.oracleRepairs,
		} {
			if line := fmt.Sprintf("%s{algo=\"appfast\"} %d\n", name, want); !strings.Contains(string(body), line) {
				t.Errorf("/metrics lacks %q", strings.TrimSpace(line))
			}
		}
		if got := metricValue(t, string(body), `sac_query_oracle_repair_span_total{algo="appfast"}`); !span(int(got)) {
			t.Errorf("sac_query_oracle_repair_span_total = %v", got)
		}
		if t.Failed() {
			t.Fatalf("/metrics:\n%s", body)
		}
	}

	none := func(n int) bool { return n == 0 }
	some := func(n int) bool { return n > 0 }
	span := 0 // the span total at the last expect
	same := func(n int) bool { return n == span }
	more := func(n int) bool { return n > span }
	spanNow := func() int {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return int(metricValue(t, string(body), `sac_query_oracle_repair_span_total{algo="appfast"}`))
	}
	query()
	expect(counts{0, 1, 0, 0, 1, 0}, none)
	post("/v1/checkin", map[string]any{"v": 7, "x": 0.4, "y": 0.6}) // a member of 0's 3-core
	query()
	expect(counts{1, 1, 0, 0, 2, 0}, none)
	post("/v1/checkin", map[string]any{"v": 30, "x": 0.1, "y": 0.1}) // outside it: costs nothing
	query()
	expect(counts{1, 1, 0, 1, 2, 0}, none)
	p0 := testGraph().Loc(0)
	post("/v1/checkin", map[string]any{"v": 7, "x": p0.X + 1e-3, "y": p0.Y}) // the member again, next to q
	query()
	expect(counts{2, 1, 0, 1, 2, 1}, some)
	// q's clique's two members farthest from it keep four clique-mates each
	// and an earlier way in: deleting their edge leaves every prefix as it
	// was, the view stands and the oracle is restored.
	g := testGraph()
	clique := []int{1, 2, 3, 4, 5}
	slices.SortFunc(clique, func(a, b int) int { return cmp.Compare(p0.Dist(g.Loc(graph.V(a))), p0.Dist(g.Loc(graph.V(b)))) })
	span = spanNow()
	post("/v1/edge", map[string]any{"u": clique[3], "v": clique[4], "op": "delete"})
	query()
	expect(counts{2, 1, 0, 2, 2, 2}, same)
	// A member of the next clique sent to the far side of the square crosses
	// every rank above its own: one repair, those lengths.
	post("/v1/checkin", map[string]any{"v": 8, "x": 1 - p0.X, "y": 1 - p0.Y})
	query()
	expect(counts{3, 1, 0, 2, 2, 3}, more)
	post("/v1/edge", map[string]any{"u": 0, "v": 30, "op": "insert"}) // clique 5 joins
	query()
	expect(counts{3, 2, 1, 2, 3, 3}, some)
}
