package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"sacsearch/internal/graph"
	"sacsearch/internal/kcore"
)

// rebuildFrom constructs a from-scratch graph with g's current topology and
// locations — the differential reference after churn.
func rebuildFrom(g *graph.Graph) *graph.Graph {
	n := g.NumVertices()
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetLoc(graph.V(v), g.Loc(graph.V(v)))
		for _, u := range g.Neighbors(graph.V(v)) {
			if u > graph.V(v) {
				b.AddEdge(graph.V(v), u)
			}
		}
	}
	return b.Build()
}

// algoRuns is the five-algorithm differential battery.
var algoRuns = []struct {
	name string
	run  func(s *Searcher, q graph.V, k int) (*Result, error)
}{
	{"AppFast", func(s *Searcher, q graph.V, k int) (*Result, error) { return s.AppFast(q, k, 0.5) }},
	{"AppInc", func(s *Searcher, q graph.V, k int) (*Result, error) { return s.AppInc(q, k) }},
	{"AppAcc", func(s *Searcher, q graph.V, k int) (*Result, error) { return s.AppAcc(q, k, 0.3) }},
	{"Exact", func(s *Searcher, q graph.V, k int) (*Result, error) { return s.Exact(q, k) }},
	{"ExactPlus", func(s *Searcher, q graph.V, k int) (*Result, error) { return s.ExactPlus(q, k, 0.2) }},
}

// requireSameAnswers runs the battery on both searchers for (q, k) and fails
// on any divergence, infeasibility mismatches included.
func requireSameAnswers(t *testing.T, warm, cold *Searcher, q graph.V, k int, tag string) {
	t.Helper()
	for _, algo := range algoRuns {
		rw, errW := algo.run(warm, q, k)
		rc, errC := algo.run(cold, q, k)
		if (errW == nil) != (errC == nil) {
			t.Fatalf("%s %s q=%d: warm err %v, cold err %v", tag, algo.name, q, errW, errC)
		}
		if errW != nil {
			if !errors.Is(errW, ErrNoCommunity) {
				t.Fatalf("%s %s q=%d: %v", tag, algo.name, q, errW)
			}
			continue
		}
		if !membersEqual(rw.Members, rc.Members...) {
			t.Fatalf("%s %s q=%d: warm members %v != cold %v", tag, algo.name, q, rw.Members, rc.Members)
		}
		if math.Abs(rw.Radius()-rc.Radius()) > 1e-12 {
			t.Fatalf("%s %s q=%d: warm radius %v != cold %v", tag, algo.name, q, rw.Radius(), rc.Radius())
		}
	}
}

// TestTopoChurnDifferential is the tentpole's acceptance test: randomized
// insert/remove sequences applied through a warmed, cached Searcher must
// leave incremental core numbers and every algorithm's answers identical to
// a from-scratch rebuild.
func TestTopoChurnDifferential(t *testing.T) {
	g := clusteredGraph(11, 5, 7, 25)
	n := g.NumVertices()
	warm := NewSearcher(g)
	rnd := rand.New(rand.NewSource(13))
	queries := []graph.V{0, 7, 14, 21, 28}

	// Warm the cache, views and induced CSRs across several communities.
	for _, q := range queries {
		for k := 2; k <= 3; k++ {
			if _, err := warm.AppFast(q, k, 0.5); err != nil && !errors.Is(err, ErrNoCommunity) {
				t.Fatal(err)
			}
		}
	}

	for round := 0; round < 12; round++ {
		// A small burst of churn between differential checks.
		for i := 0; i < 5; i++ {
			u, v := graph.V(rnd.Intn(n)), graph.V(rnd.Intn(n))
			if u == v {
				continue
			}
			var err error
			if g.HasEdge(u, v) && rnd.Float64() < 0.5 {
				_, err = warm.ApplyEdgeRemove(u, v)
			} else {
				_, err = warm.ApplyEdgeInsert(u, v)
			}
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		rebuilt := rebuildFrom(g)
		wantCores := kcore.Decompose(rebuilt)
		for v := 0; v < n; v++ {
			if warm.CoreNumber(graph.V(v)) != int(wantCores[v]) {
				t.Fatalf("round %d: core[%d] = %d, want %d", round, v, warm.CoreNumber(graph.V(v)), wantCores[v])
			}
		}
		cold := NewSearcher(rebuilt)
		for _, q := range queries {
			for k := 2; k <= 3; k++ {
				requireSameAnswers(t, warm, cold, q, k, "churn")
			}
		}
	}
}

// TestTopoEpochInvalidatesCache pins the invalidation path itself: a cached
// community must not survive an edge removal that shrinks it.
func TestTopoEpochInvalidatesCache(t *testing.T) {
	g := figure3()
	s := NewSearcher(g)
	r1, err := s.Exact(vQ, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !membersEqual(r1.Members, vQ, vC, vD) {
		t.Fatalf("paper optimum before churn = %v, want {Q,C,D}", r1.Members)
	}
	if s.CachedCommunities() == 0 {
		t.Fatal("first query did not populate the cache")
	}
	// Breaking {C, D} destroys the {Q,C,D} triangle; the optimum becomes
	// {Q, A, B}. A stale cached candidate set would still offer C and D.
	if ok, err := s.ApplyEdgeRemove(vC, vD); err != nil || !ok {
		t.Fatalf("ApplyEdgeRemove: ok=%v err=%v", ok, err)
	}
	r2, err := s.Exact(vQ, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !membersEqual(r2.Members, vQ, vA, vB) {
		t.Fatalf("optimum after RemoveEdge(C,D) = %v, want {Q,A,B}", r2.Members)
	}
	validateCommunity(t, g, r2, vQ, 2)
	// Re-adding the edge restores the original optimum.
	if ok, err := s.ApplyEdgeInsert(vC, vD); err != nil || !ok {
		t.Fatalf("ApplyEdgeInsert: ok=%v err=%v", ok, err)
	}
	r3, err := s.Exact(vQ, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !membersEqual(r3.Members, vQ, vC, vD) {
		t.Fatalf("optimum after re-insert = %v, want {Q,C,D}", r3.Members)
	}
}

// TestPoolWorkerNotStaleAfterRemoveEdge mirrors the SetLoc-replay test for
// topology: a pooled worker with a warmed cache must not serve a stale
// community after an edge removal applied through the base searcher.
func TestPoolWorkerNotStaleAfterRemoveEdge(t *testing.T) {
	g := clusteredGraph(7, 5, 8, 30)
	base := NewSearcher(g)
	pool := NewPool(base)
	q := graph.V(0)
	k := 3
	if base.CoreNumber(q) < k {
		t.Skip("fixture lacks a 3-core at q")
	}

	// Warm one worker's cache and keep it checked out so we provably re-use
	// the warmed searcher.
	w := pool.Get()
	r1, err := w.AppFast(q, k, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if w.CachedCommunities() == 0 {
		t.Fatal("worker cache not warmed")
	}

	// Remove a handful of q's community edges through the base searcher —
	// the worker is idle, matching the server's write-lock discipline.
	removed := 0
	for _, v := range r1.Members {
		if v == q {
			continue
		}
		for _, u := range append([]graph.V(nil), g.Neighbors(v)...) {
			if u == q || removed >= 3 {
				continue
			}
			if ok, err := base.ApplyEdgeRemove(v, u); err == nil && ok {
				removed++
			}
		}
	}
	if removed == 0 {
		t.Fatal("no edges removed")
	}

	cold := NewSearcher(rebuildFrom(g))
	requireSameAnswers(t, w, cold, q, k, "pooled")
	pool.Put(w)

	// Fresh workers cloned after the update agree too.
	requireSameAnswers(t, pool.Get(), cold, q, k, "fresh-clone")
}

// TestApplyEdgeValidation covers the error paths: out-of-range endpoints and
// the unsupported k-truss metric.
func TestApplyEdgeValidation(t *testing.T) {
	g := figure3()
	s := NewSearcher(g)
	if _, err := s.ApplyEdgeInsert(0, 99); err == nil {
		t.Fatal("out-of-range insert accepted")
	}
	if _, err := s.ApplyEdgeRemove(-1, 2); err == nil {
		t.Fatal("out-of-range remove accepted")
	}
	if ok, err := s.ApplyEdgeInsert(vQ, vQ); err != nil || ok {
		t.Fatalf("self-loop: ok=%v err=%v, want no-op", ok, err)
	}
	ts := NewSearcherWithStructure(figure3(), StructureKTruss)
	if _, err := ts.ApplyEdgeInsert(vQ, vE); err == nil {
		t.Fatal("k-truss searcher accepted a topology update")
	}
}

// TestApplyEdgeKClique exercises dynamic topology under the k-clique metric,
// whose communities are recomputed from the live graph (no decomposition to
// go stale) but whose cache entries must still be invalidated.
func TestApplyEdgeKClique(t *testing.T) {
	g := figure3()
	s := NewSearcherWithStructure(g, StructureKClique)
	if _, err := s.AppInc(vQ, 3); err != nil {
		t.Fatal(err)
	}
	// Drop {Q, C}: triangle {Q,C,D} dies; {Q,A,B} remains Q's only 3-clique.
	if ok, err := s.ApplyEdgeRemove(vQ, vC); err != nil || !ok {
		t.Fatalf("ApplyEdgeRemove: ok=%v err=%v", ok, err)
	}
	res, err := s.AppInc(vQ, 3)
	if err != nil {
		t.Fatal(err)
	}
	uncached := NewSearcherWithStructure(rebuildFrom(g), StructureKClique)
	want, err := uncached.AppInc(vQ, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !membersEqual(res.Members, want.Members...) {
		t.Fatalf("cached k-clique members %v != rebuilt %v", res.Members, want.Members)
	}
}
