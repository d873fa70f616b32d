package router

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"sacsearch/client"
	"sacsearch/internal/graph"
	"sacsearch/internal/server"
	"sacsearch/internal/shard"
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
// one shard, far-away check-ins must be absorbed by the router's gate — for
// θ-SAC as for any other algorithm, since its answer reads only the
// candidate set too (internal/core/theta.go), and also while its disk holds
// no community.
func TestRoutedSubscriptionGate(t *testing.T) {
	for _, tc := range []struct {
		name string
		q    client.Query
	}{
		{"appfast", client.Query{Q: 3, K: 3, Algo: "appfast"}},
		{"theta", client.Query{Q: 3, K: 3, Algo: "theta", Theta: client.Float(0.3)}},
		{"theta empty disk", client.Query{Q: 3, K: 3, Algo: "theta", Theta: client.Float(1e-6)}},
	} {
		q := tc.q
		t.Run(tc.name, func(t *testing.T) {
			g := testGraph(200, 900, 17)
			tp := newTopology(t, g, 2)
			rtHandler := tp.routerHandler(t)

			sub, err := tp.routerCl.Subscribe(t.Context(), q, &client.SubscribeOptions{ID: "gated", Buffer: 1024})
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
			watch := gsub.Gate.(map[int64]struct{})
			if watch == nil {
				t.Fatal("the evaluation gathered no watch set")
			}
			// Pick movers outside the watch set.
			var movers []int64
			for v := 0; v < g.NumVertices() && len(movers) < 10; v++ {
				if _, in := watch[int64(v)]; !in {
					movers = append(movers, int64(v))
				}
			}
			awaitShardWatchers(t, tp, watch)
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
		})
	}
}

// TestRoutedThetaCertifiedEmptyDisk: a certified θ-SAC query whose disk
// holds no community is the shard's certified no-community verdict, answered
// as a single server answers it; a standing one keeps no gathered set and
// wakes on q's owner shard's frames, so the owner's frames for members
// moving into the disk bring the community in.
func TestRoutedThetaCertifiedEmptyDisk(t *testing.T) {
	tp := newTopology(t, cornerCliques(), 2)
	q := client.Query{Q: 0, K: 2, Algo: "theta", Theta: client.Float(0.005)} // the disk holds q alone
	certified := tp.rt.queryPath.With("certified").Value()
	var want, got *client.APIError
	if _, err := tp.singleCl.Query(t.Context(), q); !errors.As(err, &want) || want.Code != wire.CodeNoCommunity {
		t.Fatalf("single server: %v, want no_community", err)
	}
	if _, err := tp.routerCl.Query(t.Context(), q); !errors.As(err, &got) || got.Status != want.Status ||
		got.Code != want.Code || got.Message != want.Message {
		t.Fatalf("routed %v, single %v", err, want)
	}
	if tp.rt.queryPath.With("certified").Value() != certified+1 {
		t.Fatal("the query was not certified")
	}

	sub, err := tp.routerCl.Subscribe(t.Context(), q, &client.SubscribeOptions{ID: "tight", Buffer: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	var view replayView
	select {
	case ev := <-sub.Events:
		view.apply(t, ev)
	case <-time.After(15 * time.Second):
		t.Fatal("no init")
	}
	if !view.noCommunity {
		t.Fatalf("init holds %v, want no community", view.sorted())
	}
	for _, v := range []int64{1, 2} {
		if err := tp.routerCl.CheckIn(t.Context(), v, 0.1, 0.1); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(15 * time.Second)
	for view.noCommunity || fmt.Sprint(view.sorted()) != "[0 1 2]" {
		select {
		case ev := <-sub.Events:
			view.apply(t, ev)
		case <-deadline:
			t.Fatalf("after two members moved onto q the stream holds %v (no community: %v)", view.sorted(), view.noCommunity)
		}
	}
	// Draining joins the dispatcher, so the gate state reads race-free.
	gsub, _ := tp.rt.subs.Hub().Get("tight")
	tp.rt.DrainSubscriptions()
	if gathered := gsub.Gate.(map[int64]struct{}); gathered != nil {
		t.Fatalf("gathered set %v, want none: a certified answer wakes on q's owner shard", gathered)
	}
}

// TestRoutedCertifiedWakesOnOwnerAlone: a certified standing query keeps no
// gathered set and wakes on its owner shard alone (the proof heads
// subscribe.go). Check-ins, edge ops and a resync on the other shard
// evaluate nothing and send no leg; a member's move on the owner is one
// evaluation of one search leg, and the stream then holds what a fresh
// routed query answers.
func TestRoutedCertifiedWakesOnOwnerAlone(t *testing.T) {
	tp := newTopology(t, cornerCliques(), 2)
	owner, other := tp.m.OwnerOf(0), tp.m.OwnerOf(8)
	if owner == other {
		t.Fatal("cliques landed on the same shard; test graph needs adjusting")
	}
	q := client.Query{Q: 0, K: 2, Algo: "appfast"}
	sub, err := tp.routerCl.Subscribe(t.Context(), q, &client.SubscribeOptions{ID: "owned", Buffer: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	var view replayView
	select {
	case ev := <-sub.Events:
		view.apply(t, ev)
	case <-time.After(15 * time.Second):
		t.Fatal("no init")
	}
	// q's clique stands in for a watch set: the owner's every vertex is in
	// it, so only the other shard's probe has to be skipped.
	clique := make(map[int64]struct{})
	for v := int64(0); v < 8; v++ {
		clique[v] = struct{}{}
	}
	awaitShardWatchers(t, tp, clique)
	hub := tp.rt.subs.Hub()

	legs := func() (search, expand uint64) {
		return tp.rt.legsTotal.With("search").Value(), tp.rt.legsTotal.With("expand").Value()
	}
	evals0 := hub.Evals().Value()
	search0, expand0 := legs()
	// gated runs write and waits until the frame it caused has been through
	// the gate.
	gated := func(what string, write func() error) {
		t.Helper()
		skipped := hub.Skipped().Value()
		if err := write(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		for deadline := time.Now().Add(10 * time.Second); hub.Skipped().Value() == skipped; {
			if hub.Evals().Value() != evals0 {
				t.Fatalf("%s on shard %d re-evaluated the certified subscription", what, other)
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never reached the gate", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	ctx := t.Context()
	for i := 0; i < 10; i++ {
		v := int64(8 + i%8)
		gated(fmt.Sprintf("a check-in of %d", v), func() error {
			return tp.routerCl.CheckIn(ctx, v, 0.9+float64(i)*0.001, 0.95)
		})
	}
	for u := int64(8); u < 15; u++ {
		gated(fmt.Sprintf("deleting edge (%d,%d)", u, u+1), func() error {
			_, err := tp.routerCl.Edge(ctx, u, u+1, false)
			return err
		})
	}
	gated("a resync", func() error {
		tp.rt.subs.note(other, client.WatchEvent{Resync: true})
		return nil
	})
	if got := hub.Evals().Value(); got != evals0 {
		t.Fatalf("the other shard's frames cost %d evaluations", got-evals0)
	}
	// A round that skipped it ran after its last evaluation: its gate state
	// reads race-free.
	if gsub, _ := hub.Get("owned"); gsub.Gate.(map[int64]struct{}) != nil {
		t.Fatalf("gathered set %v, want none: a certified answer wakes on q's owner shard", gsub.Gate)
	}
	if s, e := legs(); s != search0 || e != expand0 {
		t.Fatalf("the other shard's frames cost %d search and %d expand legs", s-search0, e-expand0)
	}

	// A member's move on the owner wakes it: one evaluation, one search leg.
	members := view.sorted()
	mover := members[len(members)-1]
	if mover == 0 {
		t.Fatalf("the community %v holds q alone", members)
	}
	if err := tp.routerCl.CheckIn(ctx, mover, 0.3, 0.3); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if s, _ := legs(); s > search0 && hub.Evals().Value() > evals0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the move of member %d never re-evaluated the subscription", mover)
		}
	}
	time.Sleep(100 * time.Millisecond) // room for a second evaluation or leg to show
	if s, e := legs(); hub.Evals().Value() != evals0+1 || s != search0+1 || e != expand0 {
		t.Fatalf("a member's move cost %d evaluations, %d search and %d expand legs; want 1, 1, 0",
			hub.Evals().Value()-evals0, s-search0, e-expand0)
	}
	deadline := time.After(15 * time.Second)
	for !view.matchesFresh(tp, t, q) {
		select {
		case ev := <-sub.Events:
			view.apply(t, ev)
		case <-deadline:
			t.Fatalf("after member %d moved the stream holds %v", mover, view.sorted())
		}
	}
}

// TestRoutedStandingReadsTailedEndpoint: a standing query reads its owner
// on the endpoint whose feed woke it. Here q's owner has a second endpoint, a
// replica that never applies a write: a round-robin read would land on it
// every other evaluation and keep its stale answer until the owner's next
// frame. Each of the owner's writes must instead bring the stream to the
// single engine's answer.
func TestRoutedStandingReadsTailedEndpoint(t *testing.T) {
	tp := newTopology(t, cornerCliques(), 2)
	owner := tp.m.OwnerOf(0)
	lagging, err := shard.Subgraph(tp.g, tp.m, owner)
	if err != nil {
		t.Fatal(err)
	}
	sv, err := shard.NewServing(tp.m, owner)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewWithConfig("lagging", lagging, server.Config{Shard: sv})
	t.Cleanup(srv.Close)
	replica := httptest.NewServer(srv)
	t.Cleanup(replica.Close)
	urls := [][]string{{tp.shards[0].URL}, {tp.shards[1].URL}}
	urls[owner] = append(urls[owner], replica.URL) // the leader stays first: the watcher tails it
	rt, err := New(Config{Map: tp.m, Shards: urls})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.DrainSubscriptions)
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)
	cl, err := client.New(front.URL)
	if err != nil {
		t.Fatal(err)
	}

	q := client.Query{Q: 0, K: 2, Algo: "appfast"}
	sub, err := cl.Subscribe(t.Context(), q, &client.SubscribeOptions{ID: "tailed", Buffer: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	var view replayView
	select {
	case ev := <-sub.Events:
		view.apply(t, ev)
	case <-time.After(15 * time.Second):
		t.Fatal("no init")
	}
	stale := fmt.Sprint(view.sorted()) // what the replica answers throughout
	for deadline := time.Now().Add(10 * time.Second); rt.subs.tailing[owner].Load() != 1; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the owner's watcher never attached to its leader")
		}
	}
	for step := 0; step < 4; step++ {
		members := view.sorted()
		mover := members[len(members)-1]
		if mover == 0 {
			t.Fatalf("the community %v holds q alone", members)
		}
		x := 0.5 + 0.05*float64(step)
		if err := cl.CheckIn(t.Context(), mover, x, 0.5); err != nil {
			t.Fatal(err)
		}
		if err := tp.singleCl.CheckIn(t.Context(), mover, x, 0.5); err != nil {
			t.Fatal(err)
		}
		res, err := tp.singleCl.Query(t.Context(), q)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprint(res.Members)
		if want == stale {
			t.Fatalf("moving member %d left the answer %s as the replica holds it; test graph needs adjusting", mover, want)
		}
		deadline := time.After(10 * time.Second)
		for fmt.Sprint(view.sorted()) != want {
			select {
			case ev := <-sub.Events:
				view.apply(t, ev)
			case <-deadline:
				t.Fatalf("after member %d moved the stream holds %v, want %s (the replica holds %s)",
					mover, view.sorted(), want, stale)
			}
		}
	}
}

// TestRoutedCheckinOverflowEvaluatesAssembled pins maxPendCheckins: a round
// of maxPendCheckins distinct check-ins, none of them gathered, leaves an
// assembled subscription alone; one more overflows the coalesced set into
// evaluate-everything. Each round is one frame injected through note, its
// ids past the graph's last vertex.
func TestRoutedCheckinOverflowEvaluatesAssembled(t *testing.T) {
	tp := newTopology(t, testGraph(200, 900, 17), 2)
	// With the shards' feeds closed, only the injected frames reach the gate.
	for _, sh := range tp.shards {
		sh.Config.Handler.(*server.Server).DrainSubscriptions()
	}
	sub, err := tp.routerCl.Subscribe(t.Context(), client.Query{Q: 3, K: 3, Algo: "appfast"},
		&client.SubscribeOptions{ID: "flooded", Buffer: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	select {
	case <-sub.Events:
	case <-time.After(15 * time.Second):
		t.Fatal("no init")
	}
	hub := tp.rt.subs.Hub()
	for _, tc := range []struct {
		checkins  int
		evaluates bool
	}{{maxPendCheckins, false}, {maxPendCheckins + 1, true}} {
		ev := client.WatchEvent{Checkins: make([]int64, tc.checkins)}
		for i := range ev.Checkins {
			ev.Checkins[i] = int64(tp.g.NumVertices() + i)
		}
		evals0, skipped0 := hub.Evals().Value(), hub.Skipped().Value()
		tp.rt.subs.note(tp.m.OwnerOf(3), ev)
		for deadline := time.Now().Add(10 * time.Second); hub.Evals().Value() == evals0 && hub.Skipped().Value() == skipped0; {
			if time.Now().After(deadline) {
				t.Fatalf("%d check-ins never reached the gate", tc.checkins)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if evaluated := hub.Evals().Value() > evals0; evaluated != tc.evaluates {
			t.Errorf("%d coalesced check-ins outside the gathered set: evaluated %v, want %v",
				tc.checkins, evaluated, tc.evaluates)
		}
		if gsub, _ := hub.Get("flooded"); !tc.evaluates {
			if gsub.Gate.(map[int64]struct{}) == nil {
				t.Fatal("no gathered set: the query was not assembled")
			}
		}
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
