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

// dropAnswers empties every answer table s's store holds, for a test that
// repeats a query to watch its algorithm run again on warm views. Only at
// rest: with no query in flight.
func dropAnswers(s *Searcher) {
	s.store.mu.Lock()
	defer s.store.mu.Unlock()
	for _, sl := range s.store.index {
		e := sl.cur.Load()
		e.answers.clear()
		if e.views == nil {
			continue
		}
		for _, v := range e.views.views {
			if vw := v.cur.Load(); vw != nil {
				vw.answers.clear()
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

// heldAnswers returns the answers the store holds for q at k — those of q's
// published view, or for θ-SAC its entry's — with their holder's members.
func heldAnswers(s *Searcher, q graph.V, k int, theta bool) (held []*Answer, members []graph.V) {
	sl := s.store.lookup(q, k)
	if sl == nil {
		return nil, nil
	}
	e := sl.cur.Load()
	table := &e.answers
	if !theta {
		table = nil
		for _, v := range e.views.views {
			if vw := v.cur.Load(); v.q == q && vw != nil {
				table = &vw.answers
			}
		}
	}
	if table != nil {
		for i := range table.slots {
			if a := table.slots[i].Load(); a != nil {
				held = append(held, a)
			}
		}
	}
	return held, e.members
}

// TestStoreAnswerReusedOnSecondSighting: a search keeps its answer where its
// view is, with nothing attached; the second sighting of the key reads it —
// no feasibility check, the same members, MCC and δ, shared with every repeat —
// the serving layer's attachment is set once, only the whole key finds the
// answer, and a trivial k, which no search answers, takes no table.
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
		t.Fatalf("the second sighting was not answered from the table: %v %+v", err, second.Stats)
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
			t.Fatalf("a trivial k took a table: %v %+v", err, res.Stats)
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

// TestStoreAnswersBounded: 1 000 queries on one vertex, each with its own
// εF, and 1 000 θ-SAC queries, each with its own θ, leave at most
// maxAnswers answers on its view version and on its entry, every one of
// them a subset of X, none with a body, within the table's id bound, and
// each query answers what a fresh searcher does and is kept. Distinct keys
// asked twice on every member leave no published version over the bounds.
// A table fills its slots in turn, an answer replaces its key's, and one
// over the id bound alone is not kept.
func TestStoreAnswersBounded(t *testing.T) {
	g, q, _ := storeFixture(t)
	s := NewSearcher(g)
	ctx := context.Background()
	within := func(label string, tb *answerTable, x []graph.V) {
		t.Helper()
		n, ids := 0, 0
		for i := range tb.slots {
			if a := tb.slots[i].Load(); a != nil {
				n, ids = n+1, ids+len(a.Members)
				if a.Attached() != nil {
					t.Fatalf("%s: a body attached to an answer nobody reused", label)
				}
				for _, v := range a.Members {
					if !slices.Contains(x, v) {
						t.Fatalf("%s: a held answer's member %d is not in X", label, v)
					}
				}
			}
		}
		if n > maxAnswers || ids != tb.ids || ids > min(len(x), maxAnswerIDs) {
			t.Fatalf("%s: %d answers of %d ids held (counted %d), over the bounds %d and %d",
				label, n, ids, tb.ids, maxAnswers, min(len(x), maxAnswerIDs))
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
			label := fmt.Sprintf("%s%s", query.Algo, fmt.Sprint(*cmpOr(query.EpsF, query.Theta)))
			sameAs(t, label, got, want, err, wantErr)
			if err == nil && s.Finished(keyOf(t, s, query)) == nil {
				t.Fatalf("%s: the answer is not kept", label)
			}
			e := s.store.lookup(q, 4).cur.Load()
			tb := &e.answers
			if !theta {
				tb = &e.views.views[0].cur.Load().answers
			}
			within(label, tb, e.members)
		}
	}
	e := s.store.lookup(q, 4).cur.Load()
	for _, v := range e.members {
		for i := range 10 {
			query := Query{Algo: "appfast", Q: v, K: 4, EpsF: Float(float64(i) / 10)}
			for range 2 {
				if _, err := s.Search(ctx, query); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, sl := range e.views.views {
		if vw := sl.cur.Load(); vw != nil {
			within(fmt.Sprintf("view of %d", vw.q), &vw.answers, e.members)
		}
	}

	var tb answerTable
	answer := func(key, n int) *Answer {
		return &Answer{key: Resolved{Q: graph.V(key)}, Result: Result{Members: make([]graph.V, n)}}
	}
	held := func() (keys []graph.V) {
		for i := range tb.slots {
			if a := tb.slots[i].Load(); a != nil {
				keys = append(keys, a.key.Q)
			}
		}
		slices.Sort(keys)
		return keys
	}
	for i := range 20 {
		tb.keep(answer(i, 1), 100)
	}
	tb.keep(answer(19, 2), 100)
	if got := held(); !slices.Equal(got, []graph.V{12, 13, 14, 15, 16, 17, 18, 19}) || tb.ids != 9 {
		t.Fatalf("20 keys kept in turn leave %v (%d ids), want the last 8 (9 ids)", got, tb.ids)
	}
	tb.keep(answer(30, 95), 100)
	if got := held(); !slices.Contains(got, 30) || tb.ids > 100 {
		t.Fatalf("after a 95-id answer: %v, %d ids", got, tb.ids)
	}
	tb.keep(answer(31, 101), 100)
	tb.keep(answer(32, maxAnswerIDs+1), 1<<20)
	if got := held(); slices.Contains(got, 31) || slices.Contains(got, 32) || !slices.Contains(got, 30) {
		t.Fatalf("an answer over the bound alone was kept: %v", got)
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

// cmpOr returns the first non-nil pointer.
func cmpOr(ps ...*float64) *float64 {
	for _, p := range ps {
		if p != nil {
			return p
		}
	}
	return nil
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
		a, err := s.run(context.Background(), key, resolvedParams{epsF: 0.5}, (*Searcher).appFast, false)
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
// check-in outside X (which carries the view's answer forward, and not
// θ-SAC's) and an edge op inside X (not for k-truss, which rejects edge
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
					if err == nil {
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
// A's answer, with no feasibility check, for every registry algorithm.
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
		if ra.Stats.FeasibilityChecks == 0 || rb.Stats.FeasibilityChecks != 0 || rb.Stats.AnswerHits != 1 {
			t.Fatalf("%s: worker B searched again: A %+v, B %+v", spec.Name, ra.Stats, rb.Stats)
		}
		sameAs(t, spec.Name, rb, ra, nil, nil)
	}
}

// TestStoreThetaTakesNoWalk: θ-SAC keeps its answers on the (q, k) entry
// only when the store holds one at the searcher's topology, and to find one
// it walks, builds and brings forward nothing: with no entry every repeat is
// a search and the store stays empty; with a current entry the repeat reads
// the answer; with an entry behind an edge op the query leaves it as it was.
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
	if _, second := twice(); second.AnswerHits != 1 {
		t.Fatalf("with a current entry the repeat searched: %+v", second)
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
