package telemetry

import (
	"context"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func render(r *Registry) string {
	var b strings.Builder
	r.WriteText(&b)
	return b.String()
}

// TestTextFormat pins the exposition format: HELP/TYPE lines, counter and
// gauge samples, label formatting, and family name sorting.
func TestTextFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("sac_b_total", "second family").Add(3)
	r.CounterVec("sac_a_total", "first family", "route", "code").With("/v1/query", "200").Inc()
	r.Gauge("sac_c", "a gauge").Set(2.5)

	got := render(r)
	want := `# HELP sac_a_total first family
# TYPE sac_a_total counter
sac_a_total{route="/v1/query",code="200"} 1
# HELP sac_b_total second family
# TYPE sac_b_total counter
sac_b_total 3
# HELP sac_c a gauge
# TYPE sac_c gauge
sac_c 2.5
`
	if got != want {
		t.Errorf("rendered text:\n%s\nwant:\n%s", got, want)
	}
}

// TestEscaping pins label-value and help escaping: backslash, quote,
// newline.
func TestEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("sac_esc", "help with \\ backslash\nand newline", "path").
		With("a\\b\"c\nd").Inc()
	got := render(r)
	wantHelp := `# HELP sac_esc help with \\ backslash\nand newline`
	wantSample := `sac_esc{path="a\\b\"c\nd"} 1`
	if !strings.Contains(got, wantHelp) {
		t.Errorf("help not escaped: %q missing from:\n%s", wantHelp, got)
	}
	if !strings.Contains(got, wantSample) {
		t.Errorf("label not escaped: %q missing from:\n%s", wantSample, got)
	}
}

// TestHistogramCumulativity pins the histogram rendering: buckets are
// cumulative, +Inf equals _count, _sum adds up, le values format cleanly.
func TestHistogramCumulativity(t *testing.T) {
	r := NewRegistry()
	// Observations are exact binary fractions so _sum renders without
	// accumulated float noise.
	h := r.Histogram("sac_lat_seconds", "latency", []float64{0.25, 1, 4})
	for _, v := range []float64{0.125, 0.125, 0.5, 2, 8} {
		h.Observe(v)
	}
	got := render(r)
	for _, line := range []string{
		`sac_lat_seconds_bucket{le="0.25"} 2`,
		`sac_lat_seconds_bucket{le="1"} 3`,
		`sac_lat_seconds_bucket{le="4"} 4`,
		`sac_lat_seconds_bucket{le="+Inf"} 5`,
		`sac_lat_seconds_sum 10.75`,
		`sac_lat_seconds_count 5`,
		"# TYPE sac_lat_seconds histogram",
	} {
		if !strings.Contains(got, line) {
			t.Errorf("missing %q in:\n%s", line, got)
		}
	}
	if h.Count() != 5 {
		t.Errorf("Count() = %d, want 5", h.Count())
	}
}

// TestHistogramBoundaryInclusive pins le semantics: a value equal to a
// bucket bound lands in that bucket.
func TestHistogramBoundaryInclusive(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("sac_edge_seconds", "x", []float64{1, 2})
	h.Observe(1) // exactly on the first bound
	got := render(r)
	if !strings.Contains(got, `sac_edge_seconds_bucket{le="1"} 1`) {
		t.Errorf("value on bound not counted le-inclusive:\n%s", got)
	}
}

// TestHistogramVecLabels pins le composition with existing labels.
func TestHistogramVecLabels(t *testing.T) {
	r := NewRegistry()
	r.HistogramVec("sac_q_seconds", "x", []float64{1}, "algo").With("exact+").Observe(0.5)
	got := render(r)
	for _, line := range []string{
		`sac_q_seconds_bucket{algo="exact+",le="1"} 1`,
		`sac_q_seconds_bucket{algo="exact+",le="+Inf"} 1`,
		`sac_q_seconds_sum{algo="exact+"} 0.5`,
		`sac_q_seconds_count{algo="exact+"} 1`,
	} {
		if !strings.Contains(got, line) {
			t.Errorf("missing %q in:\n%s", line, got)
		}
	}
}

// TestGetOrCreate pins idempotent registration: same family twice returns
// the same instrument; GaugeFunc re-registration is last-wins.
func TestGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("sac_x_total", "x")
	b := r.Counter("sac_x_total", "x")
	if a != b {
		t.Error("Counter registered twice returned different instruments")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Error("second handle does not observe first handle's increment")
	}

	r.GaugeFunc("sac_fn", "fn", func() float64 { return 1 })
	r.GaugeFunc("sac_fn", "fn", func() float64 { return 2 })
	if got := render(r); !strings.Contains(got, "sac_fn 2") {
		t.Errorf("GaugeFunc re-registration not last-wins:\n%s", got)
	}
}

// TestNilRegistry pins nil-safety end to end: every constructor on a nil
// registry and every method on the resulting nil instruments must no-op.
func TestNilRegistry(t *testing.T) {
	var r *Registry
	r.Counter("a", "x").Inc()
	r.Counter("a", "x").Add(2)
	r.CounterVec("b", "x", "l").With("v").Inc()
	r.Gauge("c", "x").Set(1)
	r.Gauge("c", "x").Add(1)
	r.GaugeFunc("e", "x", func() float64 { return 1 })
	r.CounterFunc("f", "x", func() uint64 { return 1 })
	r.Histogram("g", "x", nil).Observe(1)
	r.HistogramVec("h", "x", nil, "l").With("v").Observe(1)
	var b strings.Builder
	r.WriteText(&b)
	if b.Len() != 0 {
		t.Errorf("nil registry rendered output: %q", b.String())
	}
}

// TestConcurrentScrape hammers instruments from many goroutines while
// scraping concurrently; run under -race this pins the lock discipline,
// and afterwards the totals must balance.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("sac_hits_total", "x", "worker")
	h := r.Histogram("sac_dur_seconds", "x", nil)
	g := r.Gauge("sac_inflight", "x")

	const workers, iters = 8, 500
	var writers, scraper sync.WaitGroup
	stop := make(chan struct{})
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var b strings.Builder
				r.WriteText(&b)
			}
		}
	}()
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			lbl := string(rune('a' + w))
			for i := 0; i < iters; i++ {
				cv.With(lbl).Inc()
				h.Observe(float64(i) / 1000)
				g.Add(1)
				g.Add(-1)
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	scraper.Wait()

	if h.Count() != workers*iters {
		t.Errorf("histogram count %d, want %d", h.Count(), workers*iters)
	}
	var total uint64
	for w := 0; w < workers; w++ {
		total += cv.With(string(rune('a' + w))).Value()
	}
	if total != workers*iters {
		t.Errorf("counter total %d, want %d", total, workers*iters)
	}
	if g.Value() != 0 {
		t.Errorf("gauge ended at %v, want 0", g.Value())
	}
}

// TestHandler pins the scrape endpoint's content type.
func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("sac_one_total", "x").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "sac_one_total 1") {
		t.Errorf("body missing sample:\n%s", rec.Body.String())
	}
}

// TestSpanTree pins span parenting, context propagation, attributes and
// the rendered tree shape.
func TestSpanTree(t *testing.T) {
	ctx, root := StartSpan(context.Background(), "query")
	root.SetAttr("algo", "exact")
	_, child1 := StartSpan(ctx, "shard-leg")
	child1.SetAttr("shard", 0)
	child1.End()
	ctx2, child2 := StartSpan(ctx, "shard-leg")
	_, grand := StartSpan(ctx2, "merge")
	grand.End()
	child2.End()
	root.End()

	if got := len(root.Children()); got != 2 {
		t.Fatalf("root has %d children, want 2", got)
	}
	if grand.Root() != root {
		t.Error("Root() did not walk to the root span")
	}
	tree := root.Tree()
	lines := strings.Split(tree, "\n")
	if len(lines) != 4 {
		t.Fatalf("tree has %d lines, want 4:\n%s", len(lines), tree)
	}
	if !strings.HasPrefix(lines[0], "query span="+root.ID) || !strings.Contains(lines[0], "algo=exact") {
		t.Errorf("root line: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "  shard-leg") || !strings.Contains(lines[1], "shard=0") {
		t.Errorf("child line: %q", lines[1])
	}
	if !strings.HasPrefix(lines[3], "    merge") {
		t.Errorf("grandchild line: %q", lines[3])
	}

	// Nil-safety.
	var nilSpan *Span
	nilSpan.End()
	nilSpan.SetAttr("k", 1)
	if nilSpan.Tree() != "" || nilSpan.Duration() != 0 || nilSpan.Root() != nil {
		t.Error("nil span methods not no-ops")
	}
}

// TestSpanConcurrentChildren creates children from parallel goroutines —
// the router's per-shard legs — under -race.
func TestSpanConcurrentChildren(t *testing.T) {
	ctx, root := StartSpan(context.Background(), "assemble")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, leg := StartSpan(ctx, "leg")
			leg.SetAttr("i", i)
			leg.End()
		}(i)
	}
	wg.Wait()
	root.End()
	if got := len(root.Children()); got != 8 {
		t.Errorf("%d children, want 8", got)
	}
}

// TestRouteLabel: every route the API reference lists (api_doc_test.go's
// table) keeps its own bounded label — none may fall into "other", which is
// reserved for paths no daemon serves.
func TestRouteLabel(t *testing.T) {
	for path, want := range map[string]string{
		"/v1/health":       "/v1/health",
		"/v1/ready":        "/v1/ready",
		"/v1/algorithms":   "/v1/algorithms",
		"/v1/vertex/17":    "/v1/vertex/{id}",
		"/v1/query":        "/v1/query",
		"/v1/batch":        "/v1/batch",
		"/v1/checkin":      "/v1/checkin",
		"/v1/edge":         "/v1/edge",
		"/v1/shard/info":   "/v1/shard/info",
		"/v1/shard/search": "/v1/shard/search",
		"/v1/shard/expand": "/v1/shard/expand",
		"/v1/shard/range":  "other",
		"/v1/subscribe":    "/v1/subscribe",
		"/v1/shard/watch":  "/v1/shard/watch",
		"/metrics":         "/metrics",
		"/v1/shard/nope":   "other",
		"/v2/query":        "other",
		"/wp-login.php":    "other",
	} {
		if got := RouteLabel(path); got != want {
			t.Errorf("RouteLabel(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestMethodLabel: the nine standard methods keep their name; any other
// token net/http accepts, lower-case spellings included, is "other".
func TestMethodLabel(t *testing.T) {
	for _, m := range []string{"GET", "HEAD", "POST", "PUT", "PATCH", "DELETE", "CONNECT", "OPTIONS", "TRACE"} {
		if got := MethodLabel(m); got != m {
			t.Errorf("MethodLabel(%q) = %q", m, got)
		}
	}
	for _, m := range []string{"M0", "get", "PROPFIND", "BREW", ""} {
		if got := MethodLabel(m); got != "other" {
			t.Errorf("MethodLabel(%q) = %q, want other", m, got)
		}
	}
}
