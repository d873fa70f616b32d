package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
)

// dropAnswers empties every view version s's store holds of its answer, for
// a test that repeats a query to watch its algorithm run again on warm
// views. Only at rest: with no query in flight.
func dropAnswers(s *Searcher) {
	s.store.mu.Lock()
	defer s.store.mu.Unlock()
	for _, sl := range s.store.index {
		if e := sl.cur.Load(); e.views != nil {
			for _, v := range e.views.views {
				if vw := v.cur.Load(); vw != nil {
					vw.answer.Store(nil)
				}
			}
		}
	}
}

// keyOf is q as the registry resolves it on s, the key of its answer.
func keyOf(t testing.TB, s *Searcher, q Query) Resolved {
	t.Helper()
	key, err := Resolve(q, s.g.NumVertices(), s.structure)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// sameAs fails the test unless got answers what want does, errors alike.
func sameAs(t *testing.T, label string, got, want *Result, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && !(errors.Is(gotErr, ErrNoCommunity) && errors.Is(wantErr, ErrNoCommunity)) {
		t.Fatalf("%s: error %v, a fresh searcher's %v", label, gotErr, wantErr)
	}
	if gotErr == nil && (!slices.Equal(got.Members, want.Members) || got.MCC != want.MCC || got.Delta != want.Delta) {
		t.Fatalf("%s: %v (MCC %+v, δ %v), a fresh searcher %v (MCC %+v, δ %v)",
			label, got.Members, got.MCC, got.Delta, want.Members, want.MCC, want.Delta)
	}
}

// TestStoreAnswerReusedOnSecondSighting: a search keeps its answer where its
// view is, with nothing attached; the second sighting of the key reads it —
// no feasibility check, the same members, MCC and δ, shared with every repeat —
// the serving layer's attachment is set once, only the whole key finds the
// answer, and a trivial k, which no search answers, keeps none.
func TestStoreAnswerReusedOnSecondSighting(t *testing.T) {
	g, q, other := storeFixture(t)
	s := NewSearcher(g)
	ctx := context.Background()
	query := Query{Algo: "appfast", Q: q, K: 4}
	key := keyOf(t, s, query)
	if s.Finished(key) != nil {
		t.Fatal("an answer before any search")
	}
	first, err := s.Search(ctx, query)
	if err != nil || first.Stats.AnswerHits != 0 || first.Stats.FeasibilityChecks == 0 {
		t.Fatalf("the first sighting was not a search: %v %+v", err, first.Stats)
	}
	held := s.Finished(key)
	if held == nil || !slices.Equal(held.Members, first.Members) || held.MCC != first.MCC || held.Attached() != nil {
		t.Fatal("the first search's answer is not held as it finished, or came with something attached")
	}
	second, err := s.Search(ctx, query)
	if err != nil || second.Stats.AnswerHits != 1 || second.Stats.FeasibilityChecks != 0 {
		t.Fatalf("the second sighting was not answered from the view version: %v %+v", err, second.Stats)
	}
	sameAs(t, "second sighting", second, first, nil, nil)
	if &second.Members[0] != &held.Members[0] {
		t.Fatal("the second sighting copied the held answer's members")
	}
	if held.Attach("body") != "body" || held.Attach("another") != "body" || held.Attached() != "body" {
		t.Fatal("the attachment is not the first one attached")
	}
	trivial := Query{Algo: "appfast", Q: q, K: 1}
	for range 2 {
		if res, err := s.Search(ctx, trivial); err != nil || res.Stats.AnswerHits != 0 || s.Finished(keyOf(t, s, trivial)) != nil {
			t.Fatalf("a trivial k kept an answer: %v %+v", err, res.Stats)
		}
	}
	for _, k := range []Resolved{
		{Algo: "appinc", Q: q, K: 4, EpsF: 0.5},
		{Algo: "appfast", Q: other, K: 4, EpsF: 0.5},
		{Algo: "appfast", Q: q, K: 5, EpsF: 0.5},
		{Algo: "appfast", Q: q, K: 4, EpsF: 0.25},
		{Algo: "appfast", Q: q, K: 4, EpsF: 0.5, Structure: StructureKTruss},
	} {
		if s.Finished(k) != nil {
			t.Fatalf("%+v finds the answer held for %+v", k, key)
		}
	}
}

// TestStoreAnswersBounded: a view version holds one answer, the last
// finished on it, so the answers kept are bounded by construction. 1 000
// queries on one vertex, each with its own εF, each answer what a fresh
// searcher does and leave exactly that answer on q's version, a subset of X
// with nothing attached; 1 000 θ-SAC queries, each with its own θ, answer
// what a fresh searcher does and keep nothing. Two keys alternated on one
// vertex each answer what a fresh searcher does, the second replacing the
// first, and a repeat of the last reads it. Distinct keys asked twice on
// every member leave each published version holding at most an answer of
// its own vertex, within X. An answer over maxAnswerIDs members is not kept.
func TestStoreAnswersBounded(t *testing.T) {
	g, q, _ := storeFixture(t)
	s := NewSearcher(g)
	ctx := context.Background()
	e := func() *cacheEntry { return s.store.lookup(q, 4).cur.Load() }
	// bare fails unless vw holds no answer, or one to a key of vw's vertex
	// whose members are in X, with nothing attached.
	bare := func(label string, vw *viewVersion, x []graph.V) {
		t.Helper()
		if a := vw.answer.Load(); a != nil {
			if a.key.Q != vw.q || a.Attached() != nil {
				t.Fatalf("%s: the answer held for %d is %+v's, attached %v", label, vw.q, a.key, a.Attached())
			}
			for _, v := range a.Members {
				if !slices.Contains(x, v) {
					t.Fatalf("%s: a held answer's member %d is not in X", label, v)
				}
			}
		}
	}
	for _, theta := range []bool{false, true} {
		for i := range 1000 {
			query := Query{Algo: "appfast", Q: q, K: 4, EpsF: Float(float64(i) / 500)}
			if theta {
				query = Query{Algo: "theta", Q: q, K: 4, Theta: Float(0.02 + float64(i)/10000)}
			}
			got, err := s.Search(ctx, query)
			want, wantErr := NewSearcher(g).Search(ctx, query)
			label := fmt.Sprintf("%s %+v", query.Algo, query)
			sameAs(t, label, got, want, err, wantErr)
			key := keyOf(t, s, query)
			if theta {
				if err == nil && (got.Stats.AnswerHits != 0 || s.Finished(key) != nil) {
					t.Fatalf("%s: a θ-SAC answer was kept", label)
				}
				continue
			}
			vw := e().views.views[0].cur.Load()
			if a := vw.answer.Load(); a == nil || a.key != key || a != s.Finished(key) {
				t.Fatalf("%s: q's version does not hold this answer", label)
			}
			bare(label, vw, e().members)
		}
	}

	first, second := Query{Algo: "appfast", Q: q, K: 4}, Query{Algo: "appfast", Q: q, K: 4, EpsF: Float(0)}
	for i := range 6 {
		query, other := first, second
		if i%2 == 1 {
			query, other = second, first
		}
		got, err := s.Search(ctx, query)
		want, wantErr := NewSearcher(g).Search(ctx, query)
		sameAs(t, fmt.Sprintf("alternation %d", i), got, want, err, wantErr)
		if err != nil || i > 0 && got.Stats.AnswerHits != 0 || s.Finished(keyOf(t, s, query)) == nil || s.Finished(keyOf(t, s, other)) != nil {
			t.Fatalf("alternation %d: %v, %+v: the second key did not replace the first", i, err, got.Stats)
		}
	}
	if again, err := s.Search(ctx, second); err != nil || again.Stats.AnswerHits != 1 {
		t.Fatalf("a repeat of the last key searched: %v", err)
	}
	for _, v := range e().members {
		for i := range 10 {
			query := Query{Algo: "appfast", Q: v, K: 4, EpsF: Float(float64(i) / 10)}
			for range 2 {
				if _, err := s.Search(ctx, query); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, sl := range e().views.views {
		if vw := sl.cur.Load(); vw != nil {
			bare(fmt.Sprintf("view of %d", vw.q), vw, e().members)
		}
	}

	var vw viewVersion
	vw.keep(&Answer{Result: Result{Members: make([]graph.V, maxAnswerIDs+1)}})
	if vw.answer.Load() != nil {
		t.Fatal("an answer over maxAnswerIDs members was kept")
	}
}

// thetaFor is a θ at which θ-SAC finds q a community at k: a little over
// the δ of its AppInc answer, whose circle O(q, δ) holds one.
func thetaFor(t *testing.T, g *graph.Graph, q graph.V, k int) float64 {
	t.Helper()
	res, err := NewSearcher(g).AppInc(q, k)
	if err != nil {
		t.Fatal(err)
	}
	return 1.01 * res.Delta
}

// TestStoreAnswersRace: goroutines on pooled workers ask a few keys of one
// vertex, θ-SAC's among them, while they look the keys up in the store:
// every search answers what a fresh searcher does, and a lookup finds
// nothing or the answer to the very key it asked.
func TestStoreAnswersRace(t *testing.T) {
	g, q, _ := storeFixture(t)
	base := NewSearcher(g)
	pool := NewPool(base)
	ctx := context.Background()
	th := thetaFor(t, g, q, 4)
	queries := []Query{
		{Algo: "appfast", EpsF: Float(0.5)}, {Algo: "appfast", EpsF: Float(0)}, {Algo: "appinc"},
		{Algo: "appacc", EpsA: Float(0.5)}, {Algo: "theta", Theta: Float(th)}, {Algo: "theta", Theta: Float(2 * th)},
	}
	keys := make([]Resolved, len(queries))
	wants := make([]*Result, len(queries))
	for i := range queries {
		queries[i].Q, queries[i].K = q, 4
		keys[i] = keyOf(t, base, queries[i])
		var err error
		if wants[i], err = NewSearcher(g).Search(ctx, queries[i]); err != nil {
			t.Fatal(err)
		}
	}
	fns := make([]func(), 6)
	for gi := range fns {
		fns[gi] = func() {
			for i := range 60 {
				j := (gi + i) % len(queries)
				w := pool.Get()
				res, err := w.Search(ctx, queries[j])
				pool.Put(w)
				if err != nil || !slices.Equal(res.Members, wants[j].Members) || res.MCC != wants[j].MCC {
					t.Errorf("%+v answers %v (%v), a fresh searcher %v", queries[j], res, err, wants[j].Members)
					return
				}
				if a := base.Finished(keys[j]); a != nil && (a.key != keys[j] || !slices.Equal(a.Members, wants[j].Members)) {
					t.Errorf("the lookup of %+v found another key's answer", keys[j])
					return
				}
			}
		}
	}
	together(fns...)
}

// TestStoreAnswerLookupAllocs: finding a held answer allocates nothing,
// through the store (Finished) and through the lifecycle below Search.
func TestStoreAnswerLookupAllocs(t *testing.T) {
	g, q, _ := storeFixture(t)
	s := NewSearcher(g)
	query := Query{Algo: "appfast", Q: q, K: 4}
	key := keyOf(t, s, query)
	if _, err := s.Search(context.Background(), query); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if s.Finished(key) == nil {
			t.Fatal("the held answer is gone")
		}
	}); n != 0 {
		t.Fatalf("a lookup allocates %v times", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		a, err := s.run(context.Background(), key, (*Searcher).appFast, false)
		if err != nil || s.stats.AnswerHits != 1 || a != s.Finished(key) {
			t.Fatalf("not the held answer: %v %+v", err, s.stats)
		}
	}); n != 0 {
		t.Fatalf("a query the table answers allocates %v times", n)
	}
}

// TestStoreAnswerNeverCrossesSnapshots: on each structure metric, a reader
// on a snapshot finds only an answer valid on it, across each kind of write
// between two snapshots: a member's check-in (which changes the answer), a
// check-in outside X (which carries the view's answer forward; θ-SAC keeps
// none) and an edge op inside X (not for k-truss, which rejects edge
// writes). The newer snapshot's reader finds nothing before its first
// search and then the answer a fresh searcher gives on it; the older one's,
// pinned behind the store, never finds the newer answer and answers what a
// fresh searcher does on its own snapshot.
func TestStoreAnswerNeverCrossesSnapshots(t *testing.T) {
	ctx := context.Background()
	for _, st := range []Structure{StructureKCore, StructureKTruss, StructureKClique} {
		t.Run(st.String(), func(t *testing.T) {
			const k = 3
			kinds := []string{"member check-in", "check-in outside X", "edge op inside X"}
			if st == StructureKTruss {
				kinds = kinds[:2]
			}
			for _, kind := range kinds {
				g := stoodGraph(7, 6, 6, 12)
				q := graph.V(-1)
				for v := range graph.V(g.NumVertices()) {
					if _, err := NewSearcherWithStructure(g, st).AppInc(v, k); err == nil {
						q = v
						break
					}
				}
				if q < 0 {
					t.Fatal("fixture: no vertex with a community")
				}
				queries := []Query{{Algo: "appfast", Q: q, K: k}, {Algo: "theta", Q: q, K: k, Theta: Float(0.5)}}
				ss := &storeSnapshots{writer: NewSearcherWithStructure(g, st)}
				ss.publish()
				old := ss.bases[0]
				ask := func(base *Searcher, query Query) (*Result, error) {
					w := ss.pool.GetFor(base)
					defer ss.pool.Put(w)
					return w.Search(ctx, query)
				}
				fresh := func(base *Searcher, query Query) (*Result, error) {
					return NewSearcherWithStructure(base.g, st).Search(ctx, query)
				}
				var before [2]*Answer
				for i, query := range queries {
					res, err := ask(old, query)
					want, wantErr := fresh(old, query)
					sameAs(t, kind+" before", res, want, err, wantErr)
					if err == nil {
						before[i] = old.Finished(keyOf(t, old, query))
					}
				}
				if before[0] == nil {
					t.Fatal("fixture: q's AppFast answer is not held")
				}

				x := NewSearcherWithStructure(g, st).communityOf(q, k)
				var w graph.Write
				switch kind {
				case "member check-in":
					m := before[0].Members[len(before[0].Members)-1]
					if m == q {
						m = before[0].Members[0]
					}
					p := g.Loc(m)
					w = graph.Write{Kind: graph.WriteCheckin, V: m, Loc: geom.Point{X: 1 - p.X, Y: 1 - p.Y}}
				case "check-in outside X":
					v := graph.V(0)
					for slices.Contains(x, v) {
						v++
					}
					w = graph.Write{Kind: graph.WriteCheckin, V: v, Loc: geom.Point{X: 0.5, Y: 0.5}}
				default:
					for _, u := range x {
						for _, v := range x {
							if u < v && !g.HasEdge(u, v) && w.Kind == 0 {
								w = graph.Write{Kind: graph.WriteAddEdge, V: u, W: v}
							}
						}
					}
					for _, v := range g.Neighbors(x[0]) {
						if w.Kind == 0 && slices.Contains(x, v) {
							w = graph.Write{Kind: graph.WriteRemoveEdge, V: x[0], W: v}
						}
					}
				}
				if ok, err := ss.writer.Apply(w); err != nil || !ok {
					t.Fatalf("fixture: %v applies %v, %v", w, ok, err)
				}
				ss.publish()
				cur := ss.bases[1]
				for i, query := range queries {
					label := fmt.Sprintf("%s, %s", kind, query.Algo)
					key := keyOf(t, cur, query)
					if cur.Finished(key) != nil {
						t.Fatalf("%s: the newer snapshot finds an answer before its first search", label)
					}
					res, err := ask(cur, query)
					want, wantErr := fresh(cur, query)
					sameAs(t, label+" on the newer snapshot", res, want, err, wantErr)
					carried := err == nil && res.Stats.AnswerHits == 1
					if carried != (kind == "check-in outside X" && i == 0) {
						t.Fatalf("%s: carried %v across the write (%+v)", label, carried, res.Stats)
					}
					if err == nil && i == 1 && cur.Finished(key) != nil {
						t.Fatalf("%s: a θ-SAC answer was kept", label)
					}
					if err == nil && i == 0 {
						after := cur.Finished(key)
						if after == nil {
							t.Fatalf("%s: the newer snapshot's answer is not held", label)
						}
						sameAs(t, label+" held on the newer snapshot", &after.Result, want, nil, nil)
						if before[i] != nil && after == before[i] && !carried {
							t.Fatalf("%s: the newer snapshot holds the older one's answer", label)
						}
					}
					wantOld, wantOldErr := fresh(old, query)
					if kind == "member check-in" && i == 0 && slices.Equal(want.Members, wantOld.Members) && want.MCC == wantOld.MCC {
						t.Fatalf("%s: the check-in does not change the answer; the test shows nothing", label)
					}
					if a := old.Finished(keyOf(t, old, query)); a != nil {
						sameAs(t, label+" held for the older snapshot", &a.Result, wantOld, nil, wantOldErr)
					}
					res, err = ask(old, query)
					sameAs(t, label+" on the older snapshot", res, wantOld, err, wantOldErr)
					if a := cur.Finished(key); err == nil && a != nil && !carried && slices.Equal(a.Members, res.Members) && a.MCC == res.MCC && a.MCC != want.MCC {
						t.Fatalf("%s: the older snapshot's answer reached the newer one", label)
					}
				}
			}
		})
	}
}

// TestStoreAnswerRepeatRunsNoSearch: worker A of a pool finishes a key on a
// snapshot, then worker B asks for it on the same snapshot: B's query reads
// A's answer, with no feasibility check, for every registry algorithm but
// θ-SAC, which keeps none: B searches it again.
func TestStoreAnswerRepeatRunsNoSearch(t *testing.T) {
	g, q, _ := storeFixture(t)
	ss := &storeSnapshots{writer: NewSearcher(g)}
	ss.publish()
	wa, wb := ss.pool.GetFor(ss.bases[0]), ss.pool.GetFor(ss.bases[0])
	for _, spec := range Algorithms() {
		if spec.Name == "exact" {
			continue // minutes on a community of this size; Exact+ stands for the exact scans
		}
		query := Query{Algo: spec.Name, Q: q, K: 4}
		if spec.Name == "theta" {
			query.Theta = Float(thetaFor(t, g, q, 4))
		}
		ra, errA := wa.Search(context.Background(), query)
		rb, errB := wb.Search(context.Background(), query)
		if errA != nil || errB != nil {
			t.Fatalf("%s: %v, %v", spec.Name, errA, errB)
		}
		if spec.Name == "theta" { // keeps no answer: B searches too
			if rb.Stats.FeasibilityChecks == 0 || rb.Stats.AnswerHits != 0 {
				t.Fatalf("%s: worker B read a kept answer: A %+v, B %+v", spec.Name, ra.Stats, rb.Stats)
			}
		} else if ra.Stats.FeasibilityChecks == 0 || rb.Stats.FeasibilityChecks != 0 || rb.Stats.AnswerHits != 1 {
			t.Fatalf("%s: worker B searched again: A %+v, B %+v", spec.Name, ra.Stats, rb.Stats)
		}
		sameAs(t, spec.Name, rb, ra, nil, nil)
	}
}

// TestStoreThetaTakesNoWalk: θ-SAC keeps no answer, and it walks, builds
// and brings forward nothing: with no entry every repeat is a search and the
// store stays empty; with a current entry the repeat is a search too; with
// an entry behind an edge op the query leaves it as it was.
func TestStoreThetaTakesNoWalk(t *testing.T) {
	g, q, _ := storeFixture(t)
	s := NewSearcher(g)
	ctx := context.Background()
	query := Query{Algo: "theta", Q: q, K: 4, Theta: Float(thetaFor(t, g, q, 4))}
	twice := func() (first, second Stats) {
		t.Helper()
		for i, st := range []*Stats{&first, &second} {
			res, err := s.Search(ctx, query)
			if err != nil {
				t.Fatalf("θ-SAC query %d: %v", i+1, err)
			}
			*st = res.Stats
		}
		return first, second
	}
	if _, second := twice(); second.AnswerHits != 0 || len(s.store.index) != 0 {
		t.Fatalf("with no entry held: %+v, %d index keys", second, len(s.store.index))
	}
	if _, err := s.AppFast(q, 4, 0.5); err != nil { // the entry
		t.Fatal(err)
	}
	if _, second := twice(); second.AnswerHits != 0 {
		t.Fatalf("with a current entry the repeat read a kept answer: %+v", second)
	}
	e := s.store.lookup(q, 4).cur.Load()
	var u graph.V
	for u = 0; s.CoreNumber(u) >= 4 || g.Degree(u) == 0; u++ {
	}
	if ok, err := s.Apply(graph.Write{Kind: graph.WriteRemoveEdge, V: u, W: g.Neighbors(u)[0]}); !ok || err != nil {
		t.Fatalf("fixture: the edge op did not apply: %v", err)
	}
	first, second := twice()
	if first.AnswerHits != 0 || second.AnswerHits != 0 || first.EntriesDropped != 0 {
		t.Fatalf("behind an edge op: %+v, %+v", first, second)
	}
	if sl := s.store.lookup(q, 4); sl == nil || sl.cur.Load() != e || e.topo.Load() == s.g.TopoEpoch() {
		t.Fatal("a θ-SAC query brought the entry forward")
	}
}
