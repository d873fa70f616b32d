package router

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"sacsearch/client"
	"sacsearch/internal/server"
	"sacsearch/internal/shard"
	"sacsearch/internal/telemetry"
)

// recordedReq is one shard-bound request's correlation headers as the shard
// actually received them.
type recordedReq struct {
	path      string
	requestID string
	traceSpan string
}

type headerRecorder struct {
	mu   sync.Mutex
	reqs []recordedReq
}

func (rec *headerRecorder) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec.mu.Lock()
		rec.reqs = append(rec.reqs, recordedReq{
			path:      r.URL.Path,
			requestID: r.Header.Get("X-Request-Id"),
			traceSpan: r.Header.Get(telemetry.TraceHeader),
		})
		rec.mu.Unlock()
		h.ServeHTTP(w, r)
	})
}

func (rec *headerRecorder) snapshot() []recordedReq {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return append([]recordedReq(nil), rec.reqs...)
}

// spanLog collects the root spans the router's TraceHook hands over.
type spanLog struct {
	mu    sync.Mutex
	roots []*telemetry.Span
}

func (sl *spanLog) hook(s *telemetry.Span) {
	sl.mu.Lock()
	sl.roots = append(sl.roots, s)
	sl.mu.Unlock()
}

func (sl *spanLog) snapshot() []*telemetry.Span {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return append([]*telemetry.Span(nil), sl.roots...)
}

// childNames returns the names of a span's direct children, in order.
func childNames(s *telemetry.Span) []string {
	var names []string
	for _, c := range s.Children() {
		names = append(names, c.Name)
	}
	return names
}

func findChild(s *telemetry.Span, name string) *telemetry.Span {
	for _, c := range s.Children() {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// newTracedTopology builds a 2-shard topology whose shard servers record
// the correlation headers they receive, fronted by a router with a live
// registry, a trace hook, and /metrics mounted.
func newTracedTopology(t *testing.T) (routerURL string, rec *headerRecorder, sl *spanLog) {
	t.Helper()
	g := testGraph(200, 900, 91)
	m, err := shard.Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	rec = &headerRecorder{}
	urls := make([][]string, m.Shards)
	for id := 0; id < m.Shards; id++ {
		sub, err := shard.Subgraph(g, m, id)
		if err != nil {
			t.Fatal(err)
		}
		sv, err := shard.NewServing(m, id)
		if err != nil {
			t.Fatal(err)
		}
		srv := server.NewWithConfig(fmt.Sprintf("shard-%d", id), sub, server.Config{Shard: sv})
		t.Cleanup(srv.Close)
		ts := httptest.NewServer(rec.wrap(srv))
		t.Cleanup(ts.Close)
		urls[id] = []string{ts.URL}
	}
	sl = &spanLog{}
	rt, err := New(Config{
		Map:       m,
		Shards:    urls,
		Metrics:   telemetry.NewRegistry(),
		TraceHook: sl.hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt)
	t.Cleanup(ts.Close)
	return ts.URL, rec, sl
}

// TestRouterForwardsRequestID pins satellite behavior the failover story
// depends on: the request id a caller sends to the router is the id every
// shard leg of that request carries, and every leg also carries a
// X-Trace-Span naming a span in the router's own tree — so one id and one
// tree stitch the whole cross-process request together.
func TestRouterForwardsRequestID(t *testing.T) {
	url, rec, sl := newTracedTopology(t)
	cl, err := client.New(url)
	if err != nil {
		t.Fatal(err)
	}
	const reqID = "cli-correlate-7"
	ctx := client.WithRequestID(t.Context(), reqID)
	// Drive all three leg shapes: a query (search, possibly expand legs), a
	// check-in (single owner leg) and an edge insert (up to two legs).
	if _, err := cl.Query(ctx, client.Query{Q: 3, K: 2}); err != nil && !strings.Contains(err.Error(), "no_community") {
		if _, ok := err.(*client.APIError); !ok {
			t.Fatalf("query: %v", err)
		}
	}
	if err := cl.CheckIn(ctx, 5, 0.4, 0.4); err != nil {
		t.Fatalf("checkin: %v", err)
	}
	if _, err := cl.Edge(ctx, 1, 150, true); err != nil {
		t.Fatalf("edge: %v", err)
	}

	reqs := rec.snapshot()
	if len(reqs) == 0 {
		t.Fatal("no shard legs recorded")
	}
	// Collect every span id in every root tree; each leg's X-Trace-Span must
	// name one of them.
	spanIDs := map[string]bool{}
	var collect func(s *telemetry.Span)
	collect = func(s *telemetry.Span) {
		spanIDs[s.ID] = true
		for _, c := range s.Children() {
			collect(c)
		}
	}
	for _, root := range sl.snapshot() {
		collect(root)
	}
	for _, rq := range reqs {
		if rq.requestID != reqID {
			t.Errorf("shard leg %s carried request id %q, want %q", rq.path, rq.requestID, reqID)
		}
		if rq.traceSpan == "" {
			t.Errorf("shard leg %s carried no %s header", rq.path, telemetry.TraceHeader)
		} else if !spanIDs[rq.traceSpan] {
			t.Errorf("shard leg %s carried span id %q not present in any router trace", rq.path, rq.traceSpan)
		}
	}
}

// TestRouterSpanTreeDifferential asserts the trace tree's shape tracks the
// routing decision: a certified query shows exactly one search leg and no
// assembly; an assembled query shows the declined search leg plus an
// assemble span with expand legs and a merge. θ-SAC takes the same path as
// the default algorithm for every (q, k) — the certificate and the gather
// are about the candidate set, which the two share — with no leg of its
// own. The differential then cross-checks the trees against
// sac_router_query_path_total on /metrics.
func TestRouterSpanTreeDifferential(t *testing.T) {
	url, _, sl := newTracedTopology(t)
	cl, err := client.New(url)
	if err != nil {
		t.Fatal(err)
	}
	ctx := t.Context()
	var paths [2][]string // per pass: each query's path, in order
	total := map[string]int{}
	for pass, theta := range []*float64{nil, client.Float(0.2)} {
		before := len(sl.snapshot())
		for v := int64(0); v < 200; v += 17 {
			for _, k := range []int{3, 4, 5} {
				q := client.Query{Q: v, K: k}
				if theta != nil {
					q.Algo, q.Theta = "theta", theta
				}
				if _, err := cl.Query(ctx, q); err != nil {
					if _, ok := err.(*client.APIError); !ok {
						t.Fatalf("query q=%d k=%d algo=%q: %v", v, k, q.Algo, err)
					}
				}
			}
		}
		for _, root := range sl.snapshot()[before:] {
			if !strings.HasPrefix(root.Name, "POST /v1/query") {
				continue
			}
			search := findChild(root, "shard-search")
			assemble := findChild(root, "assemble")
			switch {
			case search != nil && assemble == nil:
				paths[pass] = append(paths[pass], "certified")
				total["certified"]++
				if n := len(root.Children()); n != 1 {
					t.Errorf("certified query has %d children %v, want just the search leg",
						n, childNames(root))
				}
			case search != nil && assemble != nil:
				paths[pass] = append(paths[pass], "assembled")
				total["assembled"]++
				if names := childNames(assemble); findChild(assemble, "shard-expand") == nil ||
					findChild(assemble, "merge") == nil || slices.ContainsFunc(names, func(n string) bool {
					return n != "shard-expand" && n != "merge"
				}) {
					t.Errorf("assembled query's assemble span has %v, want expand legs and a merge", names)
				}
			default:
				t.Errorf("query span without a search leg: %v", childNames(root))
			}
		}
	}
	if !slices.Contains(paths[0], "certified") || !slices.Contains(paths[0], "assembled") {
		t.Fatalf("differential needs both paths: %v", paths[0])
	}
	if !slices.Equal(paths[0], paths[1]) {
		t.Fatalf("θ-SAC took paths %v, the default algorithm %v", paths[1], paths[0])
	}

	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	series := func(family string) []string { return strings.Split(grepLines(text, family+"{"), "\n") }
	for path, n := range total {
		metric := fmt.Sprintf(`sac_router_query_path_total{path=%q} %d`, path, n)
		if !slices.Contains(series("sac_router_query_path_total"), metric) {
			t.Errorf("metrics missing %s:\n%s", metric, grepLines(text, "sac_router_query_path_total"))
		}
	}
	for family, n := range map[string]int{"sac_router_query_path_total": 2, "sac_router_legs_total": 2} {
		if got := series(family); len(got) != n {
			t.Errorf("%s has %d series, want %d:\n%s", family, len(got), n, strings.Join(got, "\n"))
		}
	}
	for _, needle := range []string{
		`sac_router_legs_total{kind="search"}`,
		`sac_router_legs_total{kind="expand"}`,
		"sac_router_expand_rounds_total",
		"sac_http_requests_total",
		"sac_http_request_duration_seconds_bucket",
	} {
		if !strings.Contains(text, needle) {
			t.Errorf("metrics missing %q", needle)
		}
	}
}

// TestMadeUpMethodsShareOneSeries: the router, like a server, counts every
// method net/http accepts but no standard names under one method="other"
// series and names its spans "other /v1/query".
func TestMadeUpMethodsShareOneSeries(t *testing.T) {
	url, _, sl := newTracedTopology(t)
	for i := 0; i < 50; i++ {
		req, err := http.NewRequest(fmt.Sprintf("M%d", i), url+"/v1/query", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	series := strings.Split(grepLines(string(body), `sac_http_requests_total{`), "\n")
	series = slices.DeleteFunc(series, func(line string) bool { return !strings.Contains(line, `route="/v1/query"`) })
	if len(series) != 1 || !strings.Contains(series[0], `method="other"`) || !strings.HasSuffix(series[0], " 50") {
		t.Fatalf("fifty made-up methods gave these /v1/query series:\n%s", strings.Join(series, "\n"))
	}
	roots := sl.snapshot()
	if len(roots) < 50 || slices.IndexFunc(roots[:50], func(s *telemetry.Span) bool { return s.Name != "other /v1/query" }) >= 0 {
		t.Fatalf("%d root spans; the first fifty must be named \"other /v1/query\"", len(roots))
	}
}

// grepLines filters a metrics dump down to the lines containing sub, for
// readable failures.
func grepLines(text, sub string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, sub) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
