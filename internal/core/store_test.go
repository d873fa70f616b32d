package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
)

// storeFixture is a lattice community of a few hundred members with q among
// them, and a member that is not q.
func storeFixture(t *testing.T) (g *graph.Graph, q, mover graph.V) {
	t.Helper()
	g = latticeGraph(3, 400, 2400, 40)
	s := NewSearcher(g)
	var members []graph.V
	for v := 0; v < g.NumVertices() && len(members) < 2; v++ {
		if s.CoreNumber(graph.V(v)) >= 5 {
			members = append(members, graph.V(v))
		}
	}
	return g, members[0], members[1]
}

// together runs every fn at once, each on its own goroutine, and waits.
func together(fns ...func()) {
	var ready, done sync.WaitGroup
	start := make(chan struct{})
	for _, fn := range fns {
		ready.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			ready.Done()
			<-start
			fn()
		}()
	}
	ready.Wait()
	close(start)
	done.Wait()
}

// TestStoreRepairsAViewOnce: after a write, two pooled workers query the
// same vertex at once. The view is theirs in common, so across both queries
// the oracle is repaired exactly once, and the query that waited for the
// repair finds the view current.
func TestStoreRepairsAViewOnce(t *testing.T) {
	g, q, mover := storeFixture(t)
	pool := NewPool(NewSearcher(g))
	w1, w2 := pool.Get(), pool.Get()
	qp := g.Loc(q)
	near, far := geom.Point{X: qp.X + 1e-6, Y: qp.Y}, geom.Point{X: math.Round(1 - qp.X), Y: math.Round(1 - qp.Y)}
	query := func(w *Searcher) Stats {
		res, err := w.AppFast(q, 4, 0.5)
		if err != nil {
			t.Error(err)
			return Stats{}
		}
		return res.Stats
	}
	query(w1)
	g.SetLoc(mover, far)
	// The second build, on the other worker: from it on the oracle keeps what
	// a repair starts from.
	if st := query(w2); st.ViewRepairs != 1 || st.OracleBuilds != 1 {
		t.Fatalf("the second worker did not take up the first one's view: %+v", st)
	}
	g.SetLoc(mover, near)
	var st1, st2 Stats
	together(func() { st1 = query(w1) }, func() { st2 = query(w2) })
	repairs, builds := st1.OracleRepairs+st2.OracleRepairs, st1.OracleBuilds+st2.OracleBuilds
	hits, moved := st1.ViewHits+st2.ViewHits, st1.ViewRepairs+st2.ViewRepairs
	if repairs != 1 || builds != 0 || hits != 1 || moved != 1 {
		t.Fatalf("two workers after one write: %d oracle repairs, %d builds, %d view hits, %d view repairs; want 1, 0, 1, 1\n%+v\n%+v",
			repairs, builds, hits, moved, st1, st2)
	}
}

// TestStoreOutlivesDroppedClones: a burst of concurrent queries wider than
// the pool's idle cap clones workers the pool then drops, and a view one of
// them sorted is still there for the next worker that queries its vertex.
func TestStoreOutlivesDroppedClones(t *testing.T) {
	SetProcs(t, 2)
	g, q0, _ := storeFixture(t)
	pool := NewPool(NewSearcher(g))
	w := pool.Get()
	if _, err := w.AppFast(q0, 4, 0.5); err != nil { // the community's entry
		t.Fatal(err)
	}
	pool.Put(w)
	burst := 4 * idleCap() / 2 // 4×GOMAXPROCS
	qs := slices.DeleteFunc(eligible(NewSearcher(g), 4, burst+1), func(v graph.V) bool { return v == q0 })[:burst]
	workers := make([]*Searcher, burst)
	fns := make([]func(), burst)
	for i := range fns {
		fns[i] = func() {
			workers[i] = pool.Get()
			if _, err := workers[i].AppFast(qs[i], 4, 0.5); err != nil {
				t.Error(err)
			}
		}
	}
	together(fns...)
	for _, w := range workers {
		pool.Put(w)
	}
	if pool.Created() < int64(burst) || len(pool.idle) != idleCap() {
		t.Fatalf("fixture: the burst cloned %d workers and the pool keeps %d; want ≥ %d and %d", pool.Created(), len(pool.idle), burst, idleCap())
	}
	i := slices.IndexFunc(workers, func(w *Searcher) bool { return !slices.Contains(pool.idle, w) })
	w = pool.Get()
	res, err := w.AppFast(qs[i], 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Stats; st.CacheHits != 1 || st.ViewHits != 1 || st.ViewRebuilds != 0 || st.OracleBuilds != 0 {
		t.Fatalf("q=%d, served only by a dropped clone, is not a view hit on another worker: %+v", qs[i], st)
	}
}

// TestStoreBoundsPerEngine: four workers querying 200 distinct vertices each
// of one community leave at most maxViewsPerEntry views in its entry — for
// the whole pool, not per worker — one per vertex, none still pinned, and the
// store's member count is that of the entries it indexes, within
// maxCachedVertices.
func TestStoreBoundsPerEngine(t *testing.T) {
	g, _, _ := storeFixture(t)
	pool := NewPool(NewSearcher(g))
	qs := eligible(NewSearcher(g), 4, 800)
	if len(qs) < 200 {
		t.Fatalf("fixture: %d eligible vertices", len(qs))
	}
	fns := make([]func(), 4)
	for i := range fns {
		fns[i] = func() {
			w := pool.Get()
			defer pool.Put(w)
			for j := range 200 {
				if _, err := w.AppFast(qs[(i*200+j)%len(qs)], 4, 0.5); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}
	together(fns...)
	st := pool.base.Load().store
	entries := map[*cacheEntry]bool{}
	for _, sl := range st.index {
		entries[sl.cur.Load()] = true
	}
	members := 0
	for e := range entries {
		members += len(e.members)
		if len(e.views.views) > maxViewsPerEntry {
			t.Errorf("an entry keeps %d views, over the bound %d", len(e.views.views), maxViewsPerEntry)
		}
		seen := map[graph.V]bool{}
		for _, sl := range e.views.views {
			if seen[sl.q] {
				t.Errorf("two views of q=%d in one entry", sl.q)
			}
			seen[sl.q] = true
			if vw := sl.cur.Load(); vw == nil || vw.pins.w.Load() != 0 {
				t.Errorf("the view of q=%d is missing or still pinned after every query ended", sl.q)
			}
		}
	}
	if members != st.vertices || st.vertices > maxCachedVertices {
		t.Errorf("store counts %d member slots, its entries hold %d (bound %d)", st.vertices, members, maxCachedVertices)
	}
}

// storeSnapshots is a writer searcher over a mutable graph and the snapshots
// it publishes — frozen clones with a base searcher each, the way the
// snapshot engine serves them — behind one pool.
type storeSnapshots struct {
	writer *Searcher
	pool   *Pool
	bases  []*Searcher
}

func (ss *storeSnapshots) publish() {
	frozen := ss.writer.g.Clone()
	frozen.Freeze()
	base := ss.writer.SnapshotOnto(frozen, nil)
	ss.bases = append(ss.bases, base)
	if ss.pool == nil {
		ss.pool = NewPool(base)
	}
	ss.pool.SetBase(base)
}

// TestStoreDifferentialPinnedReaders: readers pinned to different snapshots
// share one pool while a writer publishes check-ins, edge inserts and edge
// deletes (check-ins alone for k-truss, which rejects edge writes). Each
// round publishes, then three readers query at once: two on the newest
// snapshot, and one on the snapshot two rounds back, querying the vertex the
// newest readers queried the round before — whose stored state is therefore
// ahead of it, so it takes the private path. Every answer of every registry
// algorithm must equal a fresh searcher's on the reader's snapshot.
func TestStoreDifferentialPinnedReaders(t *testing.T) {
	for _, tc := range []struct {
		st    Structure
		k     int
		edges bool
	}{
		{StructureKCore, 4, true},
		{StructureKTruss, 4, false},
		{StructureKClique, 4, true},
	} {
		t.Run(tc.st.String(), func(t *testing.T) {
			g := clusteredGraph(23, 6, 8, 40)
			ss := &storeSnapshots{writer: NewSearcherWithStructure(g, tc.st)}
			ss.publish()
			var hot []graph.V
			for v := 0; v < g.NumVertices() && len(hot) < 4; v += 5 {
				if _, err := NewSearcherWithStructure(g, tc.st).AppInc(graph.V(v), tc.k); err == nil {
					hot = append(hot, graph.V(v))
				}
			}
			if len(hot) < 4 {
				t.Fatalf("fixture: %d vertices with a community", len(hot))
			}
			params := map[string]Query{"theta": {Theta: Float(0.05)}}
			var algos []string
			for _, spec := range Algorithms() {
				algos = append(algos, spec.Name)
			}
			rnd := rand.New(rand.NewSource(int64(tc.st) + 7))
			n := g.NumVertices()
			rounds := 60
			if testing.Short() {
				rounds = 20
			}
			private := 0
			for r := 1; r <= rounds; r++ {
				// At least one check-in, so every round moves the timeline.
				for i := 1 + rnd.Intn(3); i > 0; i-- {
					w := graph.Write{Kind: graph.WriteCheckin, V: graph.V(rnd.Intn(n))}
					p := g.Loc(w.V)
					w.Loc = geom.Point{X: p.X + rnd.NormFloat64()*0.01, Y: p.Y + rnd.NormFloat64()*0.01}
					if tc.edges && i > 1 {
						u := graph.V(rnd.Intn(n))
						w = graph.Write{Kind: graph.WriteAddEdge, V: u, W: graph.V(rnd.Intn(n))}
						if nb := g.Neighbors(u); len(nb) > 0 && rnd.Intn(2) == 0 {
							w = graph.Write{Kind: graph.WriteRemoveEdge, V: u, W: nb[rnd.Intn(len(nb))]}
						}
					}
					if _, err := ss.writer.Apply(w); err != nil && w.Kind == graph.WriteCheckin {
						t.Fatal(err)
					}
				}
				ss.publish()
				newest := ss.bases[len(ss.bases)-1]
				old := ss.bases[max(0, len(ss.bases)-3)]
				type reader struct {
					base *Searcher
					q    Query
					res  *Result
					err  error
				}
				readers := make([]reader, 3)
				for j := range readers {
					rq := params[algos[(r+j)%len(algos)]]
					rq.Algo, rq.Q, rq.K = algos[(r+j)%len(algos)], hot[r%len(hot)], tc.k
					readers[j].base = newest
					if j == 2 {
						readers[j].base = old
						rq.Algo, rq.Theta, rq.Q = "appinc", nil, hot[(r-1)%len(hot)]
					}
					readers[j].q = rq
				}
				fns := make([]func(), len(readers))
				for j := range readers {
					rd := &readers[j]
					fns[j] = func() {
						w := ss.pool.GetFor(rd.base)
						defer ss.pool.Put(w)
						rd.res, rd.err = w.Search(context.Background(), rd.q)
					}
				}
				together(fns...)
				for j, rd := range readers {
					label := fmt.Sprintf("round %d reader %d %s q=%d", r, j, rd.q.Algo, rd.q.Q)
					want, wantErr := NewSearcherWithStructure(rd.base.g, tc.st).Search(context.Background(), rd.q)
					if (rd.err == nil) != (wantErr == nil) || rd.err != nil && !errors.Is(rd.err, ErrNoCommunity) {
						t.Fatalf("%s: pooled err %v, fresh err %v", label, rd.err, wantErr)
					}
					if rd.err != nil {
						continue
					}
					if !slices.Equal(rd.res.Members, want.Members) || rd.res.MCC != want.MCC || rd.res.Delta != want.Delta {
						t.Fatalf("%s: pooled %v δ %v, fresh %v δ %v", label, rd.res.Members, rd.res.Delta, want.Members, want.Delta)
					}
					if j == 2 && r > 2 && (rd.res.Stats.CacheHits == 0 || rd.res.Stats.ViewRebuilds == 1) {
						private++
					}
				}
			}
			if private == 0 {
				t.Fatal("the reader behind the store never took the private path")
			}
			t.Logf("%d of %d queries behind the store answered privately", private, rounds-2)
		})
	}
}

// withinDeadline runs q on w under a 100 ms deadline beside queries other
// workers hold in flight, and fails unless it answers, in time, what a fresh
// searcher on w's snapshot answers.
func withinDeadline(t *testing.T, w *Searcher, q Query) Stats {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	type answer struct {
		res *Result
		err error
	}
	done := make(chan answer, 1)
	go func() {
		res, err := w.Search(ctx, q)
		done <- answer{res, err}
	}()
	var got answer
	select {
	case got = <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s q=%d is still waiting on a query in flight", q.Algo, q.Q)
	}
	if got.err != nil {
		t.Fatalf("%s q=%d beside a query in flight: %v", q.Algo, q.Q, got.err)
	}
	want, err := NewSearcher(w.g).Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.res.Members, want.Members) || got.res.MCC != want.MCC {
		t.Fatalf("%s q=%d: %v, fresh %v", q.Algo, q.Q, got.res.Members, want.Members)
	}
	return got.res.Stats
}

// holdInFlight puts w in the state of a long query of (q, 4) — an Exact+
// scan, say — on base's snapshot: from candidates to the end of its run it
// pins q's entry and view version. The pins go with the test.
func holdInFlight(t *testing.T, pool *Pool, base *Searcher, q graph.V) *Searcher {
	t.Helper()
	w := pool.GetFor(base)
	w.begin(context.Background())
	if _, err := w.candidates(q, 4); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.release)
	return w
}

// TestStoreShortQueryBesideLongOne: a cheap query of q under a 100 ms
// deadline, sent while a long query of the same q holds q's view, answers in
// time — from the held view when both are on one snapshot, from a new
// version it repairs and publishes when a check-in has put the held one
// behind its snapshot, which stays as its reader found it.
func TestStoreShortQueryBesideLongOne(t *testing.T) {
	g, q, mover := storeFixture(t)
	ss := &storeSnapshots{writer: NewSearcher(g)}
	ss.publish()
	long := holdInFlight(t, ss.pool, ss.bases[0], q)
	held, order := long.curView, slices.Clone(long.curView.verts)
	short := ss.pool.GetFor(ss.bases[0])
	for _, algo := range []string{"appfast", "appinc"} {
		if st := withinDeadline(t, short, Query{Algo: algo, Q: q, K: 4}); st.ViewHits != 1 || st.ViewRebuilds != 0 {
			t.Fatalf("%s on the long query's snapshot did not share its view: %+v", algo, st)
		}
	}
	if _, err := ss.writer.Apply(graph.Write{Kind: graph.WriteCheckin, V: mover, Loc: geom.Point{X: 0.5, Y: 0.5}}); err != nil {
		t.Fatal(err)
	}
	ss.publish()
	short = ss.pool.GetFor(ss.bases[1])
	for i, algo := range []string{"appfast", "appinc"} {
		st := withinDeadline(t, short, Query{Algo: algo, Q: q, K: 4})
		if st.CacheHits != 1 || st.ViewRebuilds != 0 || i == 0 && st.ViewRepairs != 1 || i == 1 && st.ViewHits != 1 {
			t.Fatalf("%s behind a held view did not take it to a new version: %+v", algo, st)
		}
	}
	if long.curView != held || held.at != ss.bases[0].now() || !slices.Equal(held.verts, order) {
		t.Fatal("the held view was changed under its reader")
	}
}

// TestStoreEdgeOpBesideHeldEntry: an edge op inside a community lands while
// a long query holds the community's entry and q's view. A query on the
// newest snapshot answers within its deadline, from a copy of the entry that
// took its place in the store; the held entry stays as its reader found it.
// q's view follows the edge op onto a new version while the reader holds
// the old one, and is current once the reader lets go.
func TestStoreEdgeOpBesideHeldEntry(t *testing.T) {
	g, q, _ := storeFixture(t)
	ss := &storeSnapshots{writer: NewSearcher(g)}
	ss.publish()
	long := holdInFlight(t, ss.pool, ss.bases[0], q)
	held, heldView := long.curEntry, long.curView
	csr := slices.Clone(held.adjLocal)
	var u, w graph.V = -1, -1
	for _, a := range held.members[1:] {
		if b := held.members[len(held.members)-1]; a != b && !g.HasEdge(a, b) {
			u, w = a, b
			break
		}
	}
	if u < 0 {
		t.Fatal("fixture: no two members without an edge")
	}
	if _, err := ss.writer.Apply(graph.Write{Kind: graph.WriteAddEdge, V: u, W: w}); err != nil {
		t.Fatal(err)
	}
	ss.publish()
	newest := ss.bases[1]
	st := withinDeadline(t, ss.pool.GetFor(newest), Query{Algo: "appfast", Q: u, K: 4})
	if st.CacheHits != 1 || st.EntriesDropped != 0 {
		t.Fatalf("the edge op did not carry the held entry over: %+v", st)
	}
	stored := ss.pool.base.Load().store.lookup(q, 4).cur.Load()
	if stored == held || stored.topo.Load() != newest.g.TopoEpoch() || !held.pins.retired() ||
		held.topo.Load() != ss.bases[0].g.TopoEpoch() || !slices.Equal(held.adjLocal, csr) {
		t.Fatal("the held entry was changed under its reader, or not replaced in the store")
	}
	if st := withinDeadline(t, ss.pool.GetFor(newest), Query{Algo: "appinc", Q: q, K: 4}); st.ViewRebuilds != 0 || st.ViewHits != 1 {
		t.Fatalf("q's view, held at the older topology, was not brought onto a new version: %+v", st)
	}
	if long.curView != heldView || heldView.at != ss.bases[0].now() || stored.views.views[0].cur.Load() == heldView {
		t.Fatal("q's view was changed under its reader, or not replaced")
	}
	long.release()
	if st := withinDeadline(t, ss.pool.GetFor(newest), Query{Algo: "appinc", Q: q, K: 4}); st.ViewHits != 1 || st.ViewRebuilds != 0 {
		t.Fatalf("q's view, let go, did not follow the edge op onto the copy: %+v", st)
	}
}

// TestStoreVersionStandsForItsReader: a reader holds q's entry and view
// version while writes land — check-ins, an edge op inside the community —
// and other workers repair the view onto new versions, again and again, so
// replaced versions go to the free list and come back as new ones. What the
// reader loaded stays bit-equal: its order, its oracle's answer, its stamp
// and its entry's CSR. Once it lets go, its versions are recycled.
func TestStoreVersionStandsForItsReader(t *testing.T) {
	g, q, mover := storeFixture(t)
	ss := &storeSnapshots{writer: NewSearcher(g)}
	ss.publish()
	long := holdInFlight(t, ss.pool, ss.bases[0], q)
	e, vw := long.curEntry, long.curView
	at, order := vw.at, slices.Clone(vw.verts)
	comm, joinAt, minFeasible := slices.Clone(vw.oracle.comm), slices.Clone(vw.oracle.joinAt), vw.oracle.minFeasible
	adjOff, adjLocal := slices.Clone(e.adjOff), slices.Clone(e.adjLocal)
	var u, w graph.V = -1, -1
	for _, a := range e.members[1:] {
		if b := e.members[len(e.members)-1]; a != b && !g.HasEdge(a, b) {
			u, w = a, b
			break
		}
	}
	if u < 0 {
		t.Fatal("fixture: no two members without an edge")
	}
	rnd := rand.New(rand.NewSource(5))
	qp := g.Loc(q)
	for round := range 6 {
		write := graph.Write{Kind: graph.WriteCheckin, V: mover, Loc: geom.Point{X: qp.X + rnd.Float64()*0.1, Y: qp.Y + rnd.Float64()*0.1}}
		if round == 2 {
			write = graph.Write{Kind: graph.WriteAddEdge, V: u, W: w}
		}
		if _, err := ss.writer.Apply(write); err != nil {
			t.Fatal(err)
		}
		ss.publish()
		st := withinDeadline(t, ss.pool.GetFor(ss.bases[len(ss.bases)-1]), Query{Algo: "appinc", Q: q, K: 4})
		if st.ViewRebuilds != 0 {
			t.Fatalf("round %d: q's view was sorted afresh, not repaired onto a new version: %+v", round, st)
		}
	}
	if ss.pool.base.Load().store.lookup(q, 4).cur.Load() == e || e.views.views[0].cur.Load() == vw {
		t.Fatal("fixture: the writes did not replace the entry and the view")
	}
	if long.curView != vw || vw.q != q || vw.at != at || !slices.Equal(vw.verts, order) ||
		!slices.Equal(vw.oracle.comm, comm) || !slices.Equal(vw.oracle.joinAt, joinAt) || vw.oracle.minFeasible != minFeasible {
		t.Fatal("the view version changed under its reader")
	}
	if !slices.Equal(e.adjOff, adjOff) || !slices.Equal(e.adjLocal, adjLocal) {
		t.Fatal("the entry's CSR changed under its reader")
	}
	long.release()
	if !vw.pins.retired() || vw.pins.w.Load() != retiredBit || !e.pins.retired() || e.pins.w.Load() != retiredBit {
		t.Fatalf("the replaced versions are not retired and free once their reader let go: view %d, entry %d", vw.pins.w.Load(), e.pins.w.Load())
	}
}
