package router

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"sacsearch/client"
	"sacsearch/internal/graph"
	"sacsearch/internal/wire"
)

// replayView folds a subscription's event stream into the state a consumer
// would hold.
type replayView struct {
	members     map[int64]bool
	noCommunity bool
	sawInit     bool
}

func (rv *replayView) apply(t *testing.T, ev client.SubEvent) {
	t.Helper()
	switch ev.Kind {
	case "init":
		rv.sawInit = true
		rv.members = make(map[int64]bool, len(ev.Members))
		for _, v := range ev.Members {
			rv.members[v] = true
		}
	case "delta":
		if !rv.sawInit {
			t.Fatalf("delta before init: %+v", ev)
		}
		for _, v := range ev.Joined {
			rv.members[v] = true
		}
		for _, v := range ev.Left {
			delete(rv.members, v)
		}
	case "bye":
	default:
		t.Fatalf("unexpected event kind %q", ev.Kind)
	}
	rv.noCommunity = ev.NoCommunity
}

func (rv *replayView) sorted() []int64 {
	out := make([]int64, 0, len(rv.members))
	for v := range rv.members {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// matchesFresh reports whether the replayed view equals a fresh routed
// query answered on the current (quiesced) topology.
func (rv *replayView) matchesFresh(tp *topology, t *testing.T, q client.Query) bool {
	t.Helper()
	res, err := tp.routerCl.Query(t.Context(), q)
	if err != nil {
		if errors.Is(err, client.ErrNoCommunity) {
			return rv.sawInit && rv.noCommunity
		}
		t.Fatalf("fresh routed query: %v", err)
	}
	if !rv.sawInit || rv.noCommunity {
		return false
	}
	return fmt.Sprint(rv.sorted()) == fmt.Sprint(res.Members)
}

// TestRoutedSubscriptionDifferential is the routed twin of the
// single-engine differential: standing queries held by the router, fed by
// the shards' publication firehoses, must converge on exactly the answer a
// fresh routed /v1/query gives on the final topology — across certified,
// assembled and θ-SAC paths, under cross-shard churn.
func TestRoutedSubscriptionDifferential(t *testing.T) {
	g := testGraph(200, 900, 17)
	tp := newTopology(t, g, 2)

	queries := []client.Query{
		{Q: 3, K: 3, Algo: "appfast"},
		{Q: 3, K: 3, Algo: "appinc"},
		{Q: 11, K: 2, Algo: "appacc"},
		{Q: 3, K: 2, Algo: "theta", Theta: client.Float(0.3)},
		{Q: 7, K: 40, Algo: "appfast"}, // no community at this k
	}
	subs := make([]*client.Subscription, len(queries))
	views := make([]*replayView, len(queries))
	for i, q := range queries {
		sub, err := tp.routerCl.Subscribe(t.Context(), q, &client.SubscribeOptions{
			ID: fmt.Sprintf("routed-%d", i), Buffer: 1024,
		})
		if err != nil {
			t.Fatalf("subscribe %s: %v", q.Algo, err)
		}
		defer sub.Close()
		subs[i] = sub
		views[i] = &replayView{}
	}

	// Every subscription must deliver its init before churn starts, so the
	// stream observes the transitions rather than folding them into the
	// first evaluation.
	for i := range subs {
		select {
		case ev := <-subs[i].Events:
			views[i].apply(t, ev)
		case <-time.After(15 * time.Second):
			t.Fatalf("no init for %s", queries[i].Algo)
		}
	}

	// Cross-shard churn through the router's write path: moves near and
	// far, edge flips crossing the cut.
	ctx := t.Context()
	for i := 0; i < 30; i++ {
		v := int64((i * 7) % g.NumVertices())
		loc := g.Loc(0)
		if err := tp.routerCl.CheckIn(ctx, v, loc.X+float64(i)*0.01, loc.Y-float64(i)*0.005); err != nil {
			t.Fatalf("checkin: %v", err)
		}
		if i%3 == 0 {
			u, w := int64(i%g.NumVertices()), int64((i*13+1)%g.NumVertices())
			if u != w {
				if _, err := tp.routerCl.Edge(ctx, u, w, i%2 == 0); err != nil {
					t.Fatalf("edge: %v", err)
				}
			}
		}
	}

	// Convergence: drain each stream until the replayed state matches a
	// fresh routed query on the quiesced topology.
	for i, q := range queries {
		deadline := time.After(20 * time.Second)
		for {
			if views[i].matchesFresh(tp, t, q) {
				break
			}
			select {
			case ev, ok := <-subs[i].Events:
				if !ok {
					t.Fatalf("%s: stream closed before convergence: %v", q.Algo, subs[i].Err())
				}
				views[i].apply(t, ev)
			case <-deadline:
				res, err := tp.routerCl.Query(t.Context(), q)
				t.Fatalf("%s: never converged: replayed %v (noCommunity=%v), fresh %+v err=%v",
					q.Algo, views[i].sorted(), views[i].noCommunity, res, err)
			}
		}
	}
}

// TestRoutedSubscriptionGate: with the candidate watch set wholly inside
// one shard, far-away check-ins must be absorbed by the router's gate.
func TestRoutedSubscriptionGate(t *testing.T) {
	g := testGraph(200, 900, 17)
	tp := newTopology(t, g, 2)
	rtHandler := tp.routerHandler(t)

	sub, err := tp.routerCl.Subscribe(t.Context(), client.Query{Q: 3, K: 3, Algo: "appfast"},
		&client.SubscribeOptions{ID: "gated", Buffer: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	select {
	case <-sub.Events:
	case <-time.After(15 * time.Second):
		t.Fatal("no init")
	}

	gsub, ok := rtHandler.subs.Hub().Get("gated")
	if !ok {
		t.Fatal("subscription not registered on the router")
	}
	rg := gsub.Gate.(*rgate)
	if rg.watch == nil {
		t.Skip("watch set unknown (assembled answer too wide); gate degrades to evaluate-all")
	}
	// Pick movers outside the watch set.
	var movers []int64
	for v := 0; v < g.NumVertices() && len(movers) < 10; v++ {
		if _, in := rg.watch[int64(v)]; !in {
			movers = append(movers, int64(v))
		}
	}
	awaitShardWatchers(t, tp, rg.watch)
	skipped0 := rtHandler.subs.Hub().Skipped().Value()
	evals0 := rtHandler.subs.Hub().Evals().Value()
	ctx := t.Context()
	for i, v := range movers {
		if err := tp.routerCl.CheckIn(ctx, v, 0.9+float64(i)*0.001, 0.9); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for rtHandler.subs.Hub().Skipped().Value() <= skipped0 {
		if time.Now().After(deadline) {
			t.Fatalf("router gate never skipped: skipped %d -> %d, evals %d -> %d",
				skipped0, rtHandler.subs.Hub().Skipped().Value(), evals0, rtHandler.subs.Hub().Evals().Value())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := rtHandler.subs.Hub().Evals().Value(); got != evals0 {
		t.Errorf("far-away moves re-evaluated the routed standing query (%d -> %d)", evals0, got)
	}
}

// awaitShardWatchers returns once every shard's feed watcher is attached and
// its opening frame has been dispatched. The watchers attach in the
// background after the first registration, and each feed opens with a
// synthesized resync frame that re-evaluates everything — a far-away move
// included, if its notification shares that dispatch round.
//
// A check-in is published by its owner shard alone. So the gate can skip a
// probe owned by shard s only once s's watcher has delivered it, which puts
// that watcher's resync in an earlier, finished round; a probe the watcher
// missed (it attached later and resynced instead) or that shared a round
// with a resync shows up as an evaluation and is repeated. A shard whose
// every vertex is watched can never be skipped; it goes last, when an
// evaluation after its probe can only be its own watcher's doing, and the
// probe itself is then given time to land.
func awaitShardWatchers(t *testing.T, tp *topology, watch map[int64]struct{}) {
	t.Helper()
	hub := tp.rt.subs.Hub()
	deadline := time.Now().Add(15 * time.Second)
	// probe checks v in somewhere new and reports which counter answered.
	probes := 0
	probe := func(v int64) (skipped bool) {
		skipped0, evals0 := hub.Skipped().Value(), hub.Evals().Value()
		probes++
		if err := tp.routerCl.CheckIn(t.Context(), v, 0.8+float64(probes)*0.001, 0.8); err != nil {
			t.Fatal(err)
		}
		for hub.Skipped().Value() == skipped0 && hub.Evals().Value() == evals0 {
			if time.Now().After(deadline) {
				t.Fatalf("the owner of %d delivered neither a publication nor a resync", v)
			}
			time.Sleep(5 * time.Millisecond)
		}
		return hub.Skipped().Value() > skipped0
	}
	const landed = 100 * time.Millisecond // a frame crosses loopback in about one
	watchedProbe := int64(-1)             // a vertex of the one shard that is watched throughout
	for s := 0; s < tp.m.Shards; s++ {
		owned, outside := int64(-1), int64(-1)
		for v := 0; v < tp.g.NumVertices() && outside < 0; v++ {
			if tp.m.OwnerOf(graph.V(v)) == s {
				owned = int64(v)
				if _, in := watch[owned]; !in {
					outside = owned
				}
			}
		}
		switch {
		case outside >= 0:
			for !probe(outside) {
				time.Sleep(landed)
			}
		case watchedProbe >= 0:
			t.Fatalf("two shards without a vertex outside the watch set")
		default:
			watchedProbe = owned
		}
	}
	if watchedProbe >= 0 {
		probe(watchedProbe)
		time.Sleep(landed)
	}
}

// TestRoutedSubscriptionDrain: DrainSubscriptions must flush a terminal bye
// to every attached stream.
func TestRoutedSubscriptionDrain(t *testing.T) {
	g := testGraph(80, 300, 5)
	tp := newTopology(t, g, 2)
	rtHandler := tp.routerHandler(t)

	sub, err := tp.routerCl.Subscribe(t.Context(), client.Query{Q: 1, K: 2, Algo: "appfast"},
		&client.SubscribeOptions{ID: "drained"})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	select {
	case <-sub.Events:
	case <-time.After(15 * time.Second):
		t.Fatal("no init")
	}
	rtHandler.DrainSubscriptions()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case ev, ok := <-sub.Events:
			if !ok {
				t.Fatalf("stream closed without bye: %v", sub.Err())
			}
			if ev.Kind == "bye" {
				return
			}
		case <-deadline:
			t.Fatal("no bye after router drain")
		}
	}
}

// TestRoutedSubscribeRefusesWideVertex: the router parses /v1/subscribe with
// the server's parser, so a q that does not fit a vertex id is the server's
// 400 invalid_query (server.TestSubscribeErrorEnvelopes), naming the value
// the client sent.
func TestRoutedSubscribeRefusesWideVertex(t *testing.T) {
	tp := newTopology(t, testGraph(80, 300, 5), 2)
	resp, err := http.Get(tp.router.URL + "/v1/subscribe?q=4294967299&k=3")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		resp.Body.Close()
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var env wire.Error
	err = json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if err != nil || env.Code != "invalid_query" || env.Field != "q" || !strings.Contains(env.Error, "4294967299") {
		t.Fatalf("envelope %+v (decode: %v)", env, err)
	}
}
