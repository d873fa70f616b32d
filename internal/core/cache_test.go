package core

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
)

// TestCandidateCacheHits verifies that repeated queries into the same
// community are served from the membership cache, including queries from a
// different member of the same community.
func TestCandidateCacheHits(t *testing.T) {
	g := figure3()
	s := NewSearcher(g)

	r1, err := s.AppFast(vQ, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.CacheHits != 0 {
		t.Fatalf("first query reported %d cache hits", r1.Stats.CacheHits)
	}
	if s.CachedCommunities() != 1 {
		t.Fatalf("CachedCommunities = %d, want 1", s.CachedCommunities())
	}

	r2, err := s.AppFast(vQ, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Stats.CacheHits == 0 {
		t.Fatal("repeated query missed the cache")
	}
	if !membersEqual(r1.Members, r2.Members...) || r1.MCC != r2.MCC {
		t.Fatalf("cached result differs: %v/%v vs %v/%v", r1.Members, r1.MCC, r2.Members, r2.MCC)
	}

	// A different member of the same community hits the shared entry.
	r3, err := s.AppFast(vC, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Stats.CacheHits == 0 {
		t.Fatal("same-community query from another member missed the cache")
	}
	if s.CachedCommunities() != 1 {
		t.Fatalf("CachedCommunities = %d after same-community query, want 1", s.CachedCommunities())
	}

	// A different k is a different community.
	if _, err := s.AppFast(vQ, 1, 0.5); err != nil {
		t.Fatal(err)
	}
}

// TestCandidateCacheNegative verifies that infeasible (q, k) pairs are
// cached too and still return ErrNoCommunity.
func TestCandidateCacheNegative(t *testing.T) {
	g := figure3()
	s := NewSearcher(g)
	for i := 0; i < 3; i++ {
		if _, err := s.AppFast(vI, 2, 0.5); !errors.Is(err, ErrNoCommunity) {
			t.Fatalf("round %d: err = %v, want ErrNoCommunity", i, err)
		}
	}
}

// TestCandidateCacheAfterSetLoc replays location check-ins against a warmed
// searcher and verifies every algorithm still matches a cold searcher built
// after the moves: membership stays cached (topology is immutable) while the
// distance ordering is rebuilt via the graph's location epoch.
func TestCandidateCacheAfterSetLoc(t *testing.T) {
	g := clusteredGraph(7, 5, 8, 30)
	warm := NewSearcher(g)
	q := graph.V(0)
	k := 3
	if warm.CoreNumber(q) < k {
		t.Skip("fixture lacks a 3-core at q")
	}
	// Warm the cache and the sorted view.
	if _, err := warm.AppFast(q, k, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Exact(q, k); err != nil {
		t.Fatal(err)
	}

	// Replay: move a handful of community members.
	cand, err := warm.candidates(q, k)
	if err != nil {
		t.Fatal(err)
	}
	epoch := g.LocEpoch()
	moved := 0
	for _, v := range cand.verts {
		if v == q || moved >= 4 {
			continue
		}
		p := g.Loc(v)
		g.SetLoc(v, geom.Point{X: p.X + 0.11, Y: p.Y - 0.07})
		moved++
	}
	if g.LocEpoch() == epoch {
		t.Fatal("SetLoc did not bump the location epoch")
	}

	cold := NewSearcher(g)
	for _, algo := range []struct {
		name string
		run  func(s *Searcher) (*Result, error)
	}{
		{"AppFast", func(s *Searcher) (*Result, error) { return s.AppFast(q, k, 0.5) }},
		{"AppInc", func(s *Searcher) (*Result, error) { return s.AppInc(q, k) }},
		{"AppAcc", func(s *Searcher) (*Result, error) { return s.AppAcc(q, k, 0.3) }},
		{"Exact", func(s *Searcher) (*Result, error) { return s.Exact(q, k) }},
		{"ExactPlus", func(s *Searcher) (*Result, error) { return s.ExactPlus(q, k, 0.2) }},
	} {
		rw, err := algo.run(warm)
		if err != nil {
			t.Fatalf("%s warm: %v", algo.name, err)
		}
		rc, err := algo.run(cold)
		if err != nil {
			t.Fatalf("%s cold: %v", algo.name, err)
		}
		if !membersEqual(rw.Members, rc.Members...) {
			t.Fatalf("%s: warm members %v != cold %v after SetLoc replay", algo.name, rw.Members, rc.Members)
		}
		if math.Abs(rw.Radius()-rc.Radius()) > 1e-12 {
			t.Fatalf("%s: warm radius %v != cold %v after SetLoc replay", algo.name, rw.Radius(), rc.Radius())
		}
	}
}

// TestCandidateCachingDisabled verifies the toggle bypasses and drops the
// cache while leaving results unchanged.
func TestCandidateCachingDisabled(t *testing.T) {
	g := figure3()
	s := NewSearcher(g)
	if _, err := s.AppFast(vQ, 2, 0.5); err != nil {
		t.Fatal(err)
	}
	s.SetCandidateCaching(false)
	if s.CachedCommunities() != 0 {
		t.Fatal("disabling caching did not drop the cache")
	}
	res, err := s.AppFast(vQ, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CacheHits != 0 || s.CachedCommunities() != 0 {
		t.Fatal("disabled cache still used")
	}
	if !membersEqual(res.Members, vQ, vA, vB) {
		t.Fatalf("uncached members = %v, want {Q,A,B}", res.Members)
	}
	s.SetCandidateCaching(true)
	if _, err := s.AppFast(vQ, 2, 0.5); err != nil {
		t.Fatal(err)
	}
	if s.CachedCommunities() != 1 {
		t.Fatal("re-enabled cache not repopulated")
	}
}

// TestSortByDist checks the dual-slice sort on adversarial-ish inputs: the
// result is in strict (distance, vertex id) order on both the insertion and
// the radix path, and verts and dists stay in step.
func TestSortByDist(t *testing.T) {
	cases := [][]float64{
		{},
		{1},
		{2, 1},
		{1, 1, 1, 1, 1},
		{5, 4, 3, 2, 1, 0},
		{0, 1, 2, 3, 4, 5},
	}
	// Larger patterned inputs: sawtooth, organ pipe, many duplicates.
	saw := make([]float64, 300)
	for i := range saw {
		saw[i] = float64(i % 17)
	}
	cases = append(cases, saw)
	pipe := make([]float64, 257)
	for i := range pipe {
		pipe[i] = math.Min(float64(i), float64(len(pipe)-i))
	}
	cases = append(cases, pipe)

	// Random distances drawn from few distinct values: long tie runs on both
	// sides of the insertion/radix threshold.
	rnd := rand.New(rand.NewSource(3))
	for _, n := range []int{insertionThreshold - 1, insertionThreshold, 2000} {
		r := make([]float64, n)
		for i := range r {
			r[i] = math.Sqrt(float64(rnd.Intn(n/4+1))) / 7
		}
		cases = append(cases, r)
	}

	var sorter distSorter
	for ci, dists := range cases {
		// Vertex v sits at distance dists[v]; present them in shuffled order
		// so the id tie-break cannot come from input order.
		v := make([]graph.V, len(dists))
		for i, p := range rnd.Perm(len(dists)) {
			v[i] = graph.V(p)
		}
		d := make([]float64, len(dists))
		for i := range v {
			d[i] = dists[v[i]]
		}
		sorter.sort(v, d)
		for i := 1; i < len(d); i++ {
			if d[i-1] > d[i] || d[i-1] == d[i] && v[i-1] >= v[i] {
				t.Fatalf("case %d: not in (distance, id) order at %d: %v %v", ci, i, d, v)
			}
		}
		// The permutation must be consistent: v[i]'s original distance is d[i].
		for i := range v {
			if dists[v[i]] != d[i] {
				t.Fatalf("case %d: verts and dists desynchronized at %d", ci, i)
			}
		}
	}
}

// TestSortIDs checks buildResult's id radix sort against slices.Sort on each
// path: empty, below the insertion threshold, and one, two, three and four
// byte passes (the last with ids up to math.MaxInt32), with and without
// duplicates. src must come through untouched.
func TestSortIDs(t *testing.T) {
	rnd := rand.New(rand.NewSource(25))
	ids := func(n int, lo, hi int64) []graph.V {
		out := make([]graph.V, n)
		for i := range out {
			out[i] = graph.V(lo + rnd.Int63n(hi-lo+1))
		}
		return out
	}
	var sorter distSorter
	for _, c := range []struct {
		name string
		src  []graph.V
	}{
		{"empty", []graph.V{}},
		{"below threshold", ids(insertionThreshold-1, 0, 1<<20)},
		{"all zero", make([]graph.V, 300)},
		{"one byte", ids(200, 0, 255)},
		{"two bytes", ids(3000, 0, 1<<16-1)},
		{"three bytes", ids(3000, 0, 1<<24-1)},
		{"near MaxInt32", append(ids(500, math.MaxInt32-1000, math.MaxInt32), 0, 255, 256, math.MaxInt32)},
	} {
		orig := slices.Clone(c.src)
		want := slices.Clone(c.src)
		slices.Sort(want)
		got := make([]graph.V, len(c.src))
		sorter.sortIDs(got, c.src)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: sortIDs = %v, want %v", c.name, got, want)
		}
		if !slices.Equal(c.src, orig) {
			t.Fatalf("%s: sortIDs modified its source", c.name)
		}
	}
}

// TestCandidateCacheKCliqueOverlap pins the k-clique keying rule: clique-
// percolation communities are not equivalence classes — triangles {0,1,2}
// and {2,3,4} share only vertex 2, whose own community differs from 0's —
// so entries must be keyed by the query vertex alone. With member-fanout
// keying, the query from 2 would be served 0's cached community.
func TestCandidateCacheKCliqueOverlap(t *testing.T) {
	b := graph.NewBuilder(5)
	for _, e := range [][2]graph.V{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 2}} {
		b.AddEdge(e[0], e[1])
	}
	for v := 0; v < 5; v++ {
		b.SetLoc(graph.V(v), geom.Point{X: 0.1 * float64(v+1), Y: 0.5})
	}
	g := b.Build()
	cached := NewSearcherWithStructure(g, StructureKClique)
	uncached := NewSearcherWithStructure(g, StructureKClique)
	uncached.SetCandidateCaching(false)
	// Warm the cache from vertex 0, then query every vertex and require
	// the cached searcher to match the uncached one exactly.
	if _, err := cached.AppInc(0, 3); err != nil {
		t.Fatal(err)
	}
	for q := graph.V(0); q < 5; q++ {
		rc, errC := cached.AppInc(q, 3)
		ru, errU := uncached.AppInc(q, 3)
		if (errC == nil) != (errU == nil) {
			t.Fatalf("q=%d: cached err %v, uncached err %v", q, errC, errU)
		}
		if errC != nil {
			continue
		}
		if !membersEqual(rc.Members, ru.Members...) {
			t.Fatalf("q=%d: cached members %v != uncached %v", q, rc.Members, ru.Members)
		}
	}
}
