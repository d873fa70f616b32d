package subscribe

import (
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"sacsearch/internal/core"
	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
	"sacsearch/internal/kcore"
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

// withLoner copies g and adds one isolated vertex, the last, at (50, 50).
func withLoner(g *graph.Graph) *graph.Graph {
	n := g.NumVertices()
	b := graph.NewBuilder(n + 1)
	for v := range graph.V(n) {
		b.SetLoc(v, g.Loc(v))
		for _, u := range g.Neighbors(v) {
			if u < v {
				b.AddEdge(v, u)
			}
		}
	}
	b.SetLoc(graph.V(n), geom.Point{X: 50, Y: 50})
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

// TestGateSkipsOneSidedEdge: an edge from a member of X to a vertex that
// stays outside the k-core leaves X, the edges inside it and its members'
// locations as they were, so the gate skips it — the evaluation count does
// not move, skipped_by_gate grows and the stream stays silent — while a
// member's move afterwards still re-evaluates.
func TestGateSkipsOneSidedEdge(t *testing.T) {
	const size = 6
	loner := graph.V(2 * size)
	eng := snapshot.New(withLoner(twoClusterGraph(size)), snapshot.Options{})
	defer eng.Close()
	mgr := NewManager(ManagerOptions{Current: eng.Current, Hub: Options{Metrics: telemetry.NewRegistry(), StreamBuf: 1024}})
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
	ctx := context.Background()
	if err := eng.CheckIn(ctx, graph.V(size), geom.Point{X: 100, Y: 100.5}); err != nil {
		t.Fatal(err)
	}
	waitProcessed(t, mgr, eng.Current().Seq())
	if got := len(replay) + len(drainStream(st)); got != 1 {
		t.Fatalf("expected exactly the init event before the edge, got %d", got)
	}

	evals0, skipped0 := mgr.Hub().Evals().Value(), mgr.Hub().Skipped().Value()
	if _, err := eng.UpdateEdge(ctx, 0, loner, true); err != nil {
		t.Fatal(err)
	}
	waitProcessed(t, mgr, eng.Current().Seq())
	if got := mgr.Hub().Evals().Value(); got != evals0 {
		t.Errorf("an edge to a vertex outside the 3-core re-evaluated %d times", got-evals0)
	}
	if got := mgr.Hub().Skipped().Value(); got <= skipped0 {
		t.Errorf("skipped_by_gate did not grow: %d -> %d", skipped0, got)
	}
	if got := len(drainStream(st)); got != 0 {
		t.Errorf("the one-sided edge produced %d events on the stream", got)
	}

	if err := eng.CheckIn(ctx, graph.V(1), geom.Point{X: 5, Y: 5}); err != nil {
		t.Fatal(err)
	}
	waitProcessed(t, mgr, eng.Current().Seq())
	if got := mgr.Hub().Evals().Value(); got == evals0 {
		t.Error("a member's move after the edge did not re-evaluate")
	}
}

// TestGateHeapFlatAsSubscriptionsGrow: a subscription's gate holds a token,
// not a copy of its community, so 1 000 θ-SAC subscriptions with small
// answers on one community of thousands of members add far less than a
// byte per member each to the heap.
func TestGateHeapFlatAsSubscriptionsGrow(t *testing.T) {
	const k, subs = 3, 1000
	g := churnGraph(t, 6000, 24000, 3)
	cores := kcore.Decompose(g)
	q := graph.V(0)
	for v := range g.NumVertices() {
		if g.Degree(graph.V(v)) > g.Degree(q) {
			q = graph.V(v)
		}
	}
	X := kcore.CommunityOf(g, cores, q, k)
	if len(X) < 2*subs {
		t.Fatalf("the community has %d members, want at least %d", len(X), 2*subs)
	}
	outsider := graph.V(-1)
	for v := range g.NumVertices() {
		if cores[v] < k {
			outsider = graph.V(v)
		}
	}
	if outsider < 0 {
		t.Fatal("every vertex is in the 3-core")
	}
	eng := snapshot.New(g, snapshot.Options{})
	defer eng.Close()
	mgr := NewManager(ManagerOptions{Current: eng.Current, Hub: Options{Metrics: telemetry.NewRegistry(), MaxSubscriptions: subs, StreamBuf: 1}})
	defer mgr.Close()
	eng.SetOnPublish(mgr.Notify)

	ctx := context.Background()
	// settle waits for n evaluations, then for the round of a check-in
	// outside X, which starts only once theirs has ended and which the gate
	// skips for every subscription.
	settle := func(n int) uint64 {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for mgr.Hub().Evals().Value() < uint64(n) {
			if time.Now().After(deadline) {
				t.Fatalf("only %d of %d evaluations ran", mgr.Hub().Evals().Value(), n)
			}
			time.Sleep(5 * time.Millisecond)
		}
		p := g.Loc(outsider)
		if err := eng.CheckIn(ctx, outsider, geom.Point{X: p.X + 1e-3, Y: p.Y}); err != nil {
			t.Fatal(err)
		}
		waitProcessed(t, mgr, eng.Current().Seq())
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	register := func(i int) {
		t.Helper()
		if _, err := mgr.Register(fmt.Sprint("s", i), core.Query{Q: X[i], K: k, Algo: "theta", Theta: core.Float(1e-4)}); err != nil {
			t.Fatal(err)
		}
	}
	// One subscription first, so the community the store holds, the pool's
	// workers and the first snapshots are there before the baseline.
	register(0)
	before := settle(1)
	for i := 1; i < subs; i++ {
		register(i)
	}
	after := settle(subs)
	if got := mgr.Hub().Evals().Value(); got != subs {
		t.Fatalf("%d evaluations, want one a subscription (%d)", got, subs)
	}
	per := (float64(after) - float64(before)) / (subs - 1)
	t.Logf("|X| = %d, heap per subscription %.0f B", len(X), per)
	if per >= float64(len(X)) {
		t.Fatalf("each subscription adds %.0f B to the heap, over a byte per member of X (%d)", per, len(X))
	}
}

// TestGateNoCommunityIgnoresMoves: a subscription whose anchor is outside
// the k-core re-evaluates on topology only; moves anywhere are skipped.
func TestGateNoCommunityIgnoresMoves(t *testing.T) {
	const size = 6
	g := twoClusterGraph(size)
	eng := snapshot.New(g, snapshot.Options{})
	defer eng.Close()
	mgr := NewManager(ManagerOptions{Current: eng.Current, Hub: Options{Metrics: telemetry.NewRegistry(), StreamBuf: 1024}})
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

// TestGateOverflowEvaluatesEverything pins maxPendEvents: a round of
// maxPendEvents coalesced writes, every one a move in the far cluster, is
// skipped by the gate; one write more overflows the pending list into
// evaluate-everything. Each round is one Notify of the engine's newest
// snapshot, published with the hook off, so the round sees exactly the list
// given.
func TestGateOverflowEvaluatesEverything(t *testing.T) {
	const size = 6
	eng := snapshot.New(twoClusterGraph(size), snapshot.Options{})
	defer eng.Close()
	mgr := NewManager(ManagerOptions{Current: eng.Current, Hub: Options{Metrics: telemetry.NewRegistry(), StreamBuf: 1024}})
	defer mgr.Close()
	eng.SetOnPublish(mgr.Notify)
	if _, err := mgr.Register("near", core.Query{Q: 0, K: 3, Algo: "appfast"}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	far := graph.V(size)
	if err := eng.CheckIn(ctx, far, geom.Point{X: 100, Y: 100.5}); err != nil {
		t.Fatal(err)
	}
	waitProcessed(t, mgr, eng.Current().Seq())
	eng.SetOnPublish(nil)

	for i, tc := range []struct {
		writes    int
		evaluates bool
	}{{maxPendEvents, false}, {maxPendEvents + 1, true}} {
		loc := geom.Point{X: 100, Y: 101 + float64(i)}
		if err := eng.CheckIn(ctx, far, loc); err != nil {
			t.Fatal(err)
		}
		writes := make([]graph.Write, tc.writes)
		for j := range writes {
			writes[j] = graph.Write{Kind: graph.WriteCheckin, V: far, Loc: loc}
		}
		evals0 := mgr.Hub().Evals().Value()
		mgr.Notify(eng.Current(), writes)
		waitProcessed(t, mgr, eng.Current().Seq())
		if evaluated := mgr.Hub().Evals().Value() > evals0; evaluated != tc.evaluates {
			t.Errorf("%d coalesced far-away writes: evaluated %v, want %v", tc.writes, evaluated, tc.evaluates)
		}
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
