package subscribe

import (
	"context"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"sacsearch/internal/core"
	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
	"sacsearch/internal/snapshot"
	"sacsearch/internal/telemetry"
)

// twoClusterGraph builds two k-cliques far apart: vertices [0,size) around
// the origin, [size,2*size) around (100,100). A subscription anchored in the
// first cluster has a candidate closure entirely inside it.
func twoClusterGraph(size int) *graph.Graph {
	b := graph.NewBuilder(2 * size)
	for c := 0; c < 2; c++ {
		base := 100.0 * float64(c)
		for i := 0; i < size; i++ {
			v := graph.V(c*size + i)
			b.SetLoc(v, geom.Point{X: base + float64(i)*0.01, Y: base})
			for j := 0; j < i; j++ {
				b.AddEdge(v, graph.V(c*size+j))
			}
		}
	}
	return b.Build()
}

// TestGateSkipsFarAwayMoves is the gate-effectiveness pin: a burst of
// check-ins touching only the far cluster must be answered entirely by the
// invalidation gate — skipped_by_gate grows, the evaluation count does not
// move, and the subscriber's stream stays silent.
func TestGateSkipsFarAwayMoves(t *testing.T) {
	const size = 6
	g := twoClusterGraph(size)
	eng := snapshot.New(g, snapshot.Options{})
	defer eng.Close()

	reg := telemetry.NewRegistry()
	mgr := NewManager(ManagerOptions{
		Current: eng.Current,
		Hub:     Options{Metrics: reg, StreamBuf: 1024},
	})
	defer mgr.Close()
	eng.SetOnPublish(mgr.Notify)

	sub, err := mgr.Register("near", core.Query{Q: 0, K: 3, Algo: "appfast"})
	if err != nil {
		t.Fatal(err)
	}
	st, replay, err := sub.Attach(0, false)
	if err != nil {
		t.Fatal(err)
	}

	// Let the initial evaluation land before measuring.
	ctx := context.Background()
	if err := eng.CheckIn(ctx, graph.V(size), geom.Point{X: 100, Y: 100.5}); err != nil {
		t.Fatal(err)
	}
	waitProcessed(t, mgr, eng.Current().Seq())
	// The init lands in the replay when its round beat the Attach.
	if got := len(replay) + len(drainStream(st)); got != 1 {
		t.Fatalf("expected exactly the init event before the burst, got %d", got)
	}

	evals0 := mgr.Hub().Evals().Value()
	skipped0 := mgr.Hub().Skipped().Value()

	// Far-cluster churn: every move is outside the subscription's closure.
	for i := 0; i < 40; i++ {
		v := graph.V(size + i%size)
		p := geom.Point{X: 100 + float64(i)*0.003, Y: 100 - float64(i)*0.002}
		if err := eng.CheckIn(ctx, v, p); err != nil {
			t.Fatal(err)
		}
	}
	waitProcessed(t, mgr, eng.Current().Seq())

	if got := mgr.Hub().Evals().Value(); got != evals0 {
		t.Errorf("far-away moves triggered %d re-evaluations (evals %d -> %d)",
			got-evals0, evals0, got)
	}
	if got := mgr.Hub().Skipped().Value(); got <= skipped0 {
		t.Errorf("skipped_by_gate did not grow: %d -> %d", skipped0, got)
	}
	if got := len(drainStream(st)); got != 0 {
		t.Errorf("far-away moves produced %d events on the stream", got)
	}

	// The registry exposes the counter under the pinned metric name — the
	// same name the server test scrapes off /metrics.
	text := scrape(reg)
	for _, name := range []string{
		"sac_subscription_skipped_by_gate_total",
		"sac_subscription_evaluations_total",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("metric %s missing from registry exposition", name)
		}
	}

	// Control: a move of a closure member does re-evaluate. The MCC over a
	// clique is location-sensitive, so the stream sees a delta too.
	if err := eng.CheckIn(ctx, graph.V(1), geom.Point{X: 5, Y: 5}); err != nil {
		t.Fatal(err)
	}
	waitProcessed(t, mgr, eng.Current().Seq())
	if got := mgr.Hub().Evals().Value(); got == evals0 {
		t.Error("member move did not re-evaluate")
	}
}

// TestGateNoCommunityIgnoresMoves: a subscription whose anchor is outside
// the k-core re-evaluates on topology only; moves anywhere are skipped.
func TestGateNoCommunityIgnoresMoves(t *testing.T) {
	const size = 6
	g := twoClusterGraph(size)
	eng := snapshot.New(g, snapshot.Options{})
	defer eng.Close()
	mgr := NewManager(ManagerOptions{Current: eng.Current, Hub: Options{StreamBuf: 1024}})
	defer mgr.Close()
	eng.SetOnPublish(mgr.Notify)

	sub, err := mgr.Register("nocomm", core.Query{Q: 0, K: size + 3, Algo: "appfast"})
	if err != nil {
		t.Fatal(err)
	}
	st, replay, err := sub.Attach(0, false)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := eng.CheckIn(ctx, graph.V(0), geom.Point{X: 1, Y: 1}); err != nil {
		t.Fatal(err)
	}
	waitProcessed(t, mgr, eng.Current().Seq())
	evs := append(replay, drainStream(st)...)
	if len(evs) != 1 || evs[0].Kind != KindInit {
		t.Fatalf("expected one init, got %v", evs)
	}
	var rs replayState
	rs.apply(t, evs[0])
	if !rs.noCommunity {
		t.Fatal("k beyond max degree should have no community")
	}

	evals0 := mgr.Hub().Evals().Value()
	for i := 0; i < 20; i++ {
		v := graph.V(i % (2 * size))
		if err := eng.CheckIn(ctx, v, geom.Point{X: float64(i), Y: 0}); err != nil {
			t.Fatal(err)
		}
	}
	waitProcessed(t, mgr, eng.Current().Seq())
	if got := mgr.Hub().Evals().Value(); got != evals0 {
		t.Errorf("moves re-evaluated a no-community subscription %d times", got-evals0)
	}
}

// TestGateThetaReadsOnlyX: θ-SAC's answer is read from the candidate set X
// alone (internal/core/theta.go), so its standing queries are gated like any
// other: moves outside X are skipped, with or without a community in the
// disk, and a move inside X re-evaluates — here one that brings a community
// into a disk that held none.
func TestGateThetaReadsOnlyX(t *testing.T) {
	const size = 6
	eng := snapshot.New(twoClusterGraph(size), snapshot.Options{})
	defer eng.Close()
	mgr := NewManager(ManagerOptions{Current: eng.Current, Hub: Options{Metrics: telemetry.NewRegistry(), StreamBuf: 1024}})
	defer mgr.Close()
	eng.SetOnPublish(mgr.Notify)

	streams, replays := map[string]*Stream{}, map[string][]Event{}
	for id, theta := range map[string]float64{"disk": 0.5, "tight": 0.015} {
		sub, err := mgr.Register(id, core.Query{Q: 0, K: 3, Algo: "theta", Theta: core.Float(theta)})
		if err != nil {
			t.Fatal(err)
		}
		if streams[id], replays[id], err = sub.Attach(0, false); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	checkIn := func(v graph.V, p geom.Point) {
		t.Helper()
		if err := eng.CheckIn(ctx, v, p); err != nil {
			t.Fatal(err)
		}
	}
	checkIn(graph.V(size), geom.Point{X: 100, Y: 100.5})
	waitProcessed(t, mgr, eng.Current().Seq())
	state := map[string]*replayState{}
	for id, st := range streams {
		evs := append(replays[id], drainStream(st)...)
		if len(evs) != 1 || evs[0].Kind != KindInit {
			t.Fatalf("%s: expected one init, got %v", id, evs)
		}
		state[id] = &replayState{}
		state[id].apply(t, evs[0])
	}
	if state["disk"].noCommunity || !state["tight"].noCommunity {
		t.Fatalf("initial answers: disk %v, tight %v; want a community, then none",
			state["disk"].sorted(), state["tight"].sorted())
	}

	evals0, skipped0 := mgr.Hub().Evals().Value(), mgr.Hub().Skipped().Value()
	for i := 0; i < 20; i++ {
		checkIn(graph.V(size+i%size), geom.Point{X: 100 + float64(i)*0.003, Y: 100})
	}
	waitProcessed(t, mgr, eng.Current().Seq())
	if got := mgr.Hub().Evals().Value(); got != evals0 {
		t.Errorf("moves outside X re-evaluated θ-SAC %d times", got-evals0)
	}
	if got := mgr.Hub().Skipped().Value(); got <= skipped0 {
		t.Errorf("skipped_by_gate did not grow: %d -> %d", skipped0, got)
	}

	// Members 2 and 3 move next to q: the tight disk now holds the 4-clique
	// {0, 1, 2, 3}, a 3-core.
	checkIn(graph.V(2), geom.Point{X: 0.005, Y: 0.005})
	checkIn(graph.V(3), geom.Point{X: 0.005, Y: -0.005})
	waitProcessed(t, mgr, eng.Current().Seq())
	for _, ev := range drainStream(streams["tight"]) {
		state["tight"].apply(t, ev)
	}
	if got := state["tight"].sorted(); state["tight"].noCommunity || !slices.Equal(got, []int64{0, 1, 2, 3}) {
		t.Fatalf("after members moved into the tight disk the stream holds %v (no community: %v)", got, state["tight"].noCommunity)
	}
}

// scrape renders the registry the same way /metrics does.
func scrape(reg *telemetry.Registry) string {
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	return rec.Body.String()
}
