package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"sacsearch/internal/dataset"
	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
	"sacsearch/internal/kcore"
)

// built reports whether o answers probes, as every k-core view version's
// oracle does once it is made.
func built(o *prefixOracle) bool { return o.comm != nil }

// TestPrefixOracleMatchesPeeler compares the prefix-feasibility oracle
// against kcore.Peeler.KCoreWithin on every prefix of real candidate views,
// across random clustered graphs and several k. The oracle must agree as a
// set for every single prefix length — it is a memoization, not an
// approximation.
func TestPrefixOracleMatchesPeeler(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		g := clusteredGraph(seed, 5, 8, 40)
		s := NewSearcher(g)
		peeler := kcore.NewPeeler(g)
		rnd := rand.New(rand.NewSource(seed * 7))
		for trial := 0; trial < 3; trial++ {
			q := graph.V(rnd.Intn(g.NumVertices()))
			k := 2 + rnd.Intn(3)
			if s.CoreNumber(q) < k {
				continue
			}
			cand, err := s.candidates(q, k)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			vw := s.curView
			if vw == nil {
				t.Fatal("cached candidates did not set the current view")
			}
			for i := 0; i <= len(cand.verts); i++ {
				var oracle []graph.V
				if i > 0 {
					oracle = vw.prefixFeasible(i)
				}
				want := peeler.KCoreWithin(cand.verts[:i], q, k)
				if (oracle == nil) != (want == nil) {
					t.Fatalf("seed %d q=%d k=%d prefix %d: oracle feasible=%v, peeler=%v",
						seed, q, k, i, oracle != nil, want != nil)
				}
				if want == nil {
					continue
				}
				a := append([]graph.V(nil), oracle...)
				b := append([]graph.V(nil), want...)
				sort.Slice(a, func(x, y int) bool { return a[x] < a[y] })
				sort.Slice(b, func(x, y int) bool { return b[x] < b[y] })
				if len(a) != len(b) {
					t.Fatalf("seed %d q=%d k=%d prefix %d: oracle %d members, peeler %d",
						seed, q, k, i, len(a), len(b))
				}
				for x := range a {
					if a[x] != b[x] {
						t.Fatalf("seed %d q=%d k=%d prefix %d: oracle %v != peeler %v",
							seed, q, k, i, a, b)
					}
				}
			}
		}
	}
}

// latticeGraph is a random graph whose vertices sit on a coarse side×side
// lattice, so many are co-located and many more are equidistant from any
// query vertex: the tie-heavy input the sorted view and the oracle's
// counting sort must order deterministically.
func latticeGraph(seed int64, n, m, side int) *graph.Graph {
	rnd := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetLoc(graph.V(v), geom.Point{
			X: float64(rnd.Intn(side)) / float64(side),
			Y: float64(rnd.Intn(side)) / float64(side),
		})
	}
	for i := 0; i < m; i++ {
		if u, v := graph.V(rnd.Intn(n)), graph.V(rnd.Intn(n)); u != v {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// TestPrefixOracleDuplicateDistances is the property test of the linear
// build: on random lattice graphs, for every prefix length of a view the
// oracle's answer equals kcore.Peeler.KCoreWithin as a set, the view is in
// (distance, vertex id) order, and the emitted community is in ascending
// joinAt with ties in view order — the order ExactPlus's δ depends on at the
// ulp level, which must not depend on cache history.
func TestPrefixOracleDuplicateDistances(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		g := latticeGraph(seed, 300, 1100+100*int(seed), 9)
		s := NewSearcher(g)
		peeler := kcore.NewPeeler(g)
		rnd := rand.New(rand.NewSource(seed * 11))
		for trial := 0; trial < 4; trial++ {
			q := graph.V(rnd.Intn(g.NumVertices()))
			k := 2 + rnd.Intn(4)
			if s.CoreNumber(q) < k {
				continue
			}
			s.begin(context.Background())
			cand, err := s.candidates(q, k)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			ties := 0
			for i := 1; i < len(cand.verts); i++ {
				if cand.dist(i-1) == cand.dist(i) {
					ties++
					if cand.verts[i-1] >= cand.verts[i] {
						t.Fatalf("seed %d q=%d: view ties not in vertex-id order at %d", seed, q, i)
					}
				} else if cand.dist(i-1) > cand.dist(i) {
					t.Fatalf("seed %d q=%d: view not sorted at %d", seed, q, i)
				}
			}
			if ties < len(cand.verts)/4 {
				t.Fatalf("seed %d q=%d: only %d ties among %d candidates; fixture lost its duplicates",
					seed, q, ties, len(cand.verts))
			}
			vw := s.curView
			for i := 1; i <= len(cand.verts); i++ {
				got := slices.Clone(vw.prefixFeasible(i))
				want := slices.Clone(peeler.KCoreWithin(cand.verts[:i], q, k))
				slices.Sort(got)
				slices.Sort(want)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d q=%d k=%d prefix %d: oracle %v != peeler %v", seed, q, k, i, got, want)
				}
			}
			o := &vw.oracle
			if len(o.comm) != len(cand.verts) || len(o.joinAt) != len(o.comm) {
				t.Fatalf("seed %d q=%d: oracle emits %d of %d members", seed, q, len(o.comm), len(cand.verts))
			}
			rank := make(map[graph.V]int, len(cand.verts))
			for i, v := range cand.verts {
				rank[v] = i
			}
			for j := 1; j < len(o.comm); j++ {
				if o.joinAt[j-1] > o.joinAt[j] ||
					o.joinAt[j-1] == o.joinAt[j] && rank[o.comm[j-1]] >= rank[o.comm[j]] {
					t.Fatalf("seed %d q=%d k=%d: emitted order breaks (joinAt, view rank) at %d", seed, q, k, j)
				}
			}
		}
	}
}

// TestViewIndependentOfCacheHistory pins the deterministic tie order end to
// end: AppInc grows its prefix one vertex at a time, so among co-located
// vertices its answer depends on their order in the view. Two searchers
// whose membership cache was filled by different first queries (different
// BFS orders) must agree exactly with each other, with a fresh one, and
// with AppInc run on the global peeler over X in (distance, id) order.
func TestViewIndependentOfCacheHistory(t *testing.T) {
	g := latticeGraph(7, 300, 1500, 9)
	base := NewSearcher(g)
	var members []graph.V
	for v := 0; v < g.NumVertices() && members == nil; v++ {
		if base.CoreNumber(graph.V(v)) >= 4 {
			cand, err := base.candidates(graph.V(v), 4)
			if err != nil {
				t.Fatal(err)
			}
			members = slices.Clone(cand.verts)
		}
	}
	if len(members) < 100 {
		t.Fatalf("4-core community has %d members; fixture too small", len(members))
	}
	a, b := NewSearcher(g), NewSearcher(g)
	peeler := kcore.NewPeeler(g)
	if _, err := a.AppInc(members[0], 4); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AppInc(members[len(members)-1], 4); err != nil {
		t.Fatal(err)
	}
	for _, q := range members[:40] {
		ra, errA := a.AppInc(q, 4)
		rb, errB := b.AppInc(q, 4)
		rf, errF := NewSearcher(g).AppInc(q, 4)
		if errA != nil || errB != nil || errF != nil {
			t.Fatalf("q=%d: %v / %v / %v", q, errA, errB, errF)
		}
		for _, r := range []*Result{rb, rf} {
			if !slices.Equal(ra.Members, r.Members) || ra.MCC != r.MCC || ra.Delta != r.Delta {
				t.Fatalf("q=%d: AppInc depends on cache history: %d members δ=%v vs %d members δ=%v",
					q, len(ra.Members), ra.Delta, len(r.Members), r.Delta)
			}
		}
		// AppInc by its definition, on the global peeler: the shortest prefix
		// of X in (distance, id) order that holds a community, and that
		// community.
		order := slices.Clone(members)
		sort.Slice(order, func(i, j int) bool {
			di, dj := g.Dist(q, order[i]), g.Dist(q, order[j])
			return di < dj || di == dj && order[i] < order[j]
		})
		for i := 1; i <= len(order); i++ {
			if c := peeler.KCoreWithin(order[:i], q, 4); c != nil {
				want := slices.Clone(c)
				slices.Sort(want)
				if !slices.Equal(ra.Members, want) || ra.Delta != g.Dist(q, order[i-1]) {
					t.Fatalf("q=%d: AppInc answers %d members at δ=%v, the peeler %d at %v",
						q, len(ra.Members), ra.Delta, len(want), g.Dist(q, order[i-1]))
				}
				break
			}
		}
	}
}

// TestAnswersIndependentOfCacheHistory is the same property for the
// algorithms that read the oracle's emitted community rather than the view:
// AppAcc anchors on radii of MCCs computed over it, and Exact+ reports such a
// radius as δ. Two searchers whose membership cache was filled from opposite
// ends of the community — different BFS orders, hence different local ids —
// must give the same members, MCC and δ. The fixtures are ones where they did
// not while the oracle broke joinAt ties by local id (AppAcc: 71 against 100
// members on the first) and Exact/Exact+ reported the scan's running radius
// (δ off in the last bits on the last two).
func TestAnswersIndependentOfCacheHistory(t *testing.T) {
	ctx := t.Context()
	for _, c := range []struct {
		g    *graph.Graph
		k    int
		algo string
	}{
		{latticeGraph(12, 300, 1500, 9), 4, "appacc"},
		{latticeGraph(15, 200, 600, 1000), 3, "appacc"},
		{latticeGraph(137, 160, 480, 1000), 2, "exact+"},
		{latticeGraph(150, 200, 700, 1000), 3, "exact+"},
	} {
		base := NewSearcher(c.g)
		var members []graph.V
		for v := 0; v < c.g.NumVertices() && members == nil; v++ {
			if base.CoreNumber(graph.V(v)) >= c.k {
				cand, err := base.candidates(graph.V(v), c.k)
				if err != nil {
					t.Fatal(err)
				}
				members = slices.Clone(cand.verts)
			}
		}
		if len(members) < 3 {
			t.Fatalf("%s k=%d: community has %d members; fixture too small", c.algo, c.k, len(members))
		}
		a, b := NewSearcher(c.g), NewSearcher(c.g)
		if _, err := a.AppInc(members[0], c.k); err != nil {
			t.Fatal(err)
		}
		if _, err := b.AppInc(members[len(members)-1], c.k); err != nil {
			t.Fatal(err)
		}
		for _, q := range members {
			query := Query{Q: q, K: c.k, Algo: c.algo}
			ra, errA := a.Search(ctx, query)
			rb, errB := b.Search(ctx, query)
			if errA != nil || errB != nil {
				t.Fatalf("%s q=%d k=%d: %v / %v", c.algo, q, c.k, errA, errB)
			}
			if !slices.Equal(ra.Members, rb.Members) || ra.MCC != rb.MCC || ra.Delta != rb.Delta {
				t.Fatalf("%s q=%d k=%d depends on cache history: %d members δ=%v vs %d members δ=%v",
					c.algo, q, c.k, len(ra.Members), ra.Delta, len(rb.Members), rb.Delta)
			}
		}
	}
}

// TestViewRebuildDoesNotAllocate pins the allocation-free steady state: once
// a community is cached and the searcher's scratch has grown to it, staling
// a view (a check-in) and rebuilding it — distances, sort, prefix oracle —
// allocates nothing.
func TestViewRebuildDoesNotAllocate(t *testing.T) {
	g := latticeGraph(3, 400, 2400, 40)
	s := NewSearcher(g)
	var q1, q2 graph.V = -1, -1
	for v := 0; v < g.NumVertices(); v++ {
		if s.CoreNumber(graph.V(v)) >= 4 {
			if q1 < 0 {
				q1 = graph.V(v)
			} else {
				q2 = graph.V(v)
			}
		}
	}
	rebuild := func(q graph.V) {
		s.begin(context.Background())
		cand, err := s.candidates(q, 4)
		if err != nil {
			t.Fatal(err)
		}
		if s.curView.prefixFeasible(len(cand.verts)) == nil {
			t.Fatal("full candidate set infeasible")
		}
	}
	rebuild(q1)
	rebuild(q2)
	if s.curEntry.views.views[1].q != q1 || len(s.curView.verts) < 200 {
		t.Fatalf("fixture: q1=%d and q2=%d must share one large community", q1, q2)
	}
	allocs := testing.AllocsPerRun(20, func() {
		g.SetLoc(q1, g.Loc(q1)) // bumps the location epoch: every view is stale
		rebuild(q2)
	})
	if allocs != 0 {
		t.Fatalf("rebuilding a stale view allocated %v times per run, want 0", allocs)
	}
}

// TestCancelInsideOracleBuild covers the build's own cancellation point: a
// context that fires between the sweep and the joining pass makes no view
// version and leaves the published one standing, the query reports
// ErrCanceled, and the next query on that view builds it and matches a fresh
// searcher. Every fuse length is tried, so whichever loop boundary the
// context fires at, the searcher recovers.
func TestCancelInsideOracleBuild(t *testing.T) {
	g := latticeGraph(5, 300, 1500, 9)
	var q graph.V
	for s := NewSearcher(g); s.CoreNumber(q) < 4; q++ {
	}
	want, err := NewSearcher(g).AppInc(q, 4)
	if err != nil {
		t.Fatal(err)
	}

	s := NewSearcher(g)
	s.begin(context.Background())
	if _, err := s.candidates(q, 4); err != nil {
		t.Fatal(err)
	}
	published := s.curView
	s.qctx = newCountdown(0)
	if s.makeView(s.curEntry, nil, q, 4, s.now()) != nil || s.curEntry.views.views[0].cur.Load() != published {
		t.Fatal("oracle build completed under a dead context, or replaced the published view")
	}
	s.release()

	dry := newCountdown(math.MaxInt64)
	if _, err := s.Search(dry, Query{Algo: "appinc", Q: q, K: 4}); err != nil {
		t.Fatal(err)
	}
	for fuse := int64(0); fuse < dry.calls.Load(); fuse++ {
		g.SetLoc(q, g.Loc(q)) // stale the view so the build runs again
		if res, err := s.Search(newCountdown(fuse), Query{Algo: "appinc", Q: q, K: 4}); res != nil || !errors.Is(err, ErrCanceled) {
			t.Fatalf("fuse %d: res=%v err=%v, want ErrCanceled", fuse, res, err)
		}
		got, err := s.AppInc(q, 4)
		if err != nil {
			t.Fatalf("fuse %d: query after cancel: %v", fuse, err)
		}
		if !slices.Equal(got.Members, want.Members) || got.MCC != want.MCC || got.Delta != want.Delta {
			t.Fatalf("fuse %d: answer after a canceled build differs from a fresh searcher's", fuse)
		}
	}
}

// boundaryGraph is built to tie around its query vertex, which it returns
// with it: two co-located vertices at every point (1/2 + a/16, 1/2 + b/16),
// |a|, |b| ≤ 6, whose coordinates and offsets from the centre are exact, so
// mirrored points sit at bit-equal distances from q (the centre's first
// copy). Grid neighbours are linked at random and q to every vertex on its
// radius-1/8 circle, so the lower bound l and the first probes land on a
// circle that runs through a whole run of equidistant vertices.
func boundaryGraph(seed int64) (*graph.Graph, graph.V) {
	const side, points = 13, 13 * 13
	rnd := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(2 * points)
	at := func(v int) (int, int) { return v%points%side - 6, v%points/side - 6 }
	for v := 0; v < 2*points; v++ {
		a, c := at(v)
		b.SetLoc(graph.V(v), geom.Point{X: 0.5 + float64(a)/16, Y: 0.5 + float64(c)/16})
	}
	q := graph.V(6*side + 6)
	for u := 0; u < 2*points; u++ {
		au, cu := at(u)
		if au*au+cu*cu == 4 {
			b.AddEdge(q, graph.V(u))
		}
		for w := u + 1; w < 2*points; w++ {
			if aw, cw := at(w); max(au-aw, aw-au, cu-cw, cw-cu) <= 1 && rnd.Intn(3) > 0 {
				b.AddEdge(graph.V(u), graph.V(w))
			}
		}
	}
	return b.Build(), q
}

// TestOracleLastIsFarthest is the property test of the farthest-member
// lemma (oracle.go) that appFastSearch's O(1) u rests on: for every feasible
// prefix of a view, the oracle's answer ends with verts[J-1], J its last
// joinAt, at exactly the distance maxDistFrom finds over the whole answer.
// On the same graphs, end to end: AppFast's δ is the farthest distance of the
// community it returns, that community is what the global peeler finds among
// the candidates within δ of q, and AppAcc's δ is AppFast(0)'s.
func TestOracleLastIsFarthest(t *testing.T) {
	type fixture struct {
		name string
		g    *graph.Graph
		qs   []graph.V
	}
	var fixtures []fixture
	pick := func(name string, g *graph.Graph, seed int64) {
		rnd, s := rand.New(rand.NewSource(seed)), NewSearcher(g)
		var qs []graph.V
		for len(qs) < 3 {
			if q := graph.V(rnd.Intn(g.NumVertices())); s.CoreNumber(q) >= 2 {
				qs = append(qs, q)
			}
		}
		fixtures = append(fixtures, fixture{name, g, qs})
	}
	for seed := int64(1); seed <= 3; seed++ {
		pick("random", clusteredGraph(seed, 5, 8, 40), seed)
		pick("lattice", latticeGraph(seed, 150, 650, 9), seed)
		pick("co-located", latticeGraph(seed, 120, 500, 3), seed)
		g, q := boundaryGraph(seed)
		fixtures = append(fixtures, fixture{"boundary", g, []graph.V{q, q + 1, q + 13*13}})
	}

	ctx := t.Context()
	checked := 0
	for _, f := range fixtures {
		cached, peeler := NewSearcher(f.g), kcore.NewPeeler(f.g)
		for _, q := range f.qs {
			for k := 2; k <= 4 && k <= cached.CoreNumber(q); k++ {
				cached.begin(ctx)
				cand, err := cached.candidates(q, k)
				if err != nil {
					t.Fatalf("%s q=%d k=%d: %v", f.name, q, k, err)
				}
				vw := cached.curView
				for i := 1; i <= len(cand.verts); i++ {
					c := vw.prefixFeasible(i)
					if c == nil {
						continue
					}
					o := &vw.oracle
					last := c[len(c)-1]
					if want := vw.verts[o.joinAt[len(c)-1]-1]; last != want || !cached.isOracleAnswer(c) {
						t.Fatalf("%s q=%d k=%d prefix %d: answer ends with %d, want verts[J-1] = %d",
							f.name, q, k, i, last, want)
					}
					d, far := distFrom(cand.qp, cand.locs, last), cached.maxDistFrom(cand.qp, c)
					if math.Float64bits(d) != math.Float64bits(far) {
						t.Fatalf("%s q=%d k=%d prefix %d: last member at %v, farthest at %v", f.name, q, k, i, d, far)
					}
					checked++
				}
				for _, epsF := range []float64{0, 0.5} {
					best, delta := cached.appFastSearch(cand, q, k, epsF)
					if far := cached.maxDistFrom(cand.qp, best); math.Float64bits(delta) != math.Float64bits(far) {
						t.Fatalf("%s q=%d k=%d εF=%v: δ = %v, farthest member at %v", f.name, q, k, epsF, delta, far)
					}
				}
				X := slices.Clone(cand.verts)
				var fast0 *Result
				for _, query := range []Query{
					{Algo: "appfast", EpsF: Float(0)},
					{Algo: "appfast", EpsF: Float(0.5)},
					{Algo: "appacc", EpsA: Float(0.5)},
				} {
					query.Q, query.K = q, k
					res, err := cached.Search(ctx, query)
					if err != nil {
						t.Fatalf("%s %s q=%d k=%d: %v", f.name, query.Algo, q, k, err)
					}
					if query.Algo == "appacc" {
						if res.Delta != fast0.Delta {
							t.Fatalf("%s q=%d k=%d: AppAcc δ=%v, AppFast(0) δ=%v", f.name, q, k, res.Delta, fast0.Delta)
						}
						continue
					}
					if fast0 == nil {
						fast0 = res
					}
					var within []graph.V
					for _, v := range X {
						if f.g.Dist(q, v) <= res.Delta {
							within = append(within, v)
						}
					}
					want := slices.Clone(peeler.KCoreWithin(within, q, k))
					slices.Sort(want)
					if !slices.Equal(res.Members, want) {
						t.Fatalf("%s %s q=%d k=%d: %d members at δ=%v, the peeler finds %d within δ",
							f.name, query.Algo, q, k, len(res.Members), res.Delta, len(want))
					}
				}
			}
		}
	}
	if checked < 1000 {
		t.Fatalf("only %d feasible prefixes checked; fixtures too small", checked)
	}
}

// TestAppFastHitAllocs pins a hot AppFast query — cached community, warm
// view, built oracle — through the lifecycle below Search to the allocations
// of its result: exactly what buildAnswer makes, as TestAppAccAllocs pins for
// AppAcc. No probe copies the candidate set or its answers.
func TestAppFastHitAllocs(t *testing.T) {
	ds, err := dataset.Load("syn1", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSearcher(ds.Graph)
	q := eligible(s, 4, 1)[0]
	hot := func() *Result {
		// No registry key: no answer table, so every run runs the body.
		a, err := s.run(context.Background(), Resolved{Q: q, K: 4, EpsF: 0.5}, (*Searcher).appFast, false)
		if err != nil {
			t.Fatal(err)
		}
		return &a.Result
	}
	hot()
	res := hot()
	if res.Stats.CacheHits != 1 || res.Stats.ViewHits != 1 || len(res.Members) >= res.Stats.CandidateSize {
		t.Fatalf("fixture: not a hot query that shrank X: %d of %d members, %+v", len(res.Members), res.Stats.CandidateSize, res.Stats)
	}
	floor := testing.AllocsPerRun(20, func() { s.buildAnswer(q, 4, res.Members, res.Delta) })
	if got := testing.AllocsPerRun(20, func() { hot() }); got != floor {
		t.Fatalf("a hot AppFast query allocates %v times, buildAnswer alone %v", got, floor)
	}
}

// TestHotAnswerFollowsCheckins: a hot answer follows every check-in, even
// one that keeps the oracle's answer. Rotating a member that defines the
// answer's MCC about q keeps its distance, so its rank and the oracle stand
// and the answer's members do not change; its MCC does, and the next hot
// answer must carry the new one, bit for bit what a fresh searcher computes.
// Two query vertices of one community, queried in turn, each keep their own
// view.
func TestHotAnswerFollowsCheckins(t *testing.T) {
	ds, err := dataset.Load("syn1", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	s := NewSearcher(g)
	q := eligible(s, 4, 1)[0]
	ctx := context.Background()
	hot := func(v graph.V) *Result {
		t.Helper()
		res, err := s.Search(ctx, Query{Algo: "appfast", Q: v, K: 4})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fresh := func(v graph.V) *Result {
		t.Helper()
		res, err := NewSearcher(g).Search(ctx, Query{Algo: "appfast", Q: v, K: 4})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	checkFresh := func(what string, v graph.V, got *Result) {
		t.Helper()
		if want := fresh(v); !slices.Equal(got.Members, want.Members) || got.MCC != want.MCC || math.Float64bits(got.Delta) != math.Float64bits(want.Delta) {
			t.Fatalf("%s: q=%d answers %d members, MCC %v, δ %v; a fresh searcher %d, %v, %v",
				what, v, len(got.Members), got.MCC, got.Delta, len(want.Members), want.MCC, want.Delta)
		}
	}

	var res *Result
	for range 3 {
		res = hot(q)
		checkFresh("repeat", q, res)
	}
	if !s.isOracleAnswer(s.curView.oracle.comm[:len(res.Members)]) || res.Stats.ViewHits != 1 {
		t.Fatalf("fixture: q=%d is not a hot query answered by the oracle: %+v", q, res.Stats)
	}

	// A member on the MCC's boundary with no other member at its location,
	// so that moving it moves the circle.
	at := map[geom.Point]int{}
	for _, m := range res.Members {
		at[g.Loc(m)]++
	}
	b := graph.V(-1)
	for _, m := range res.Members {
		if d := res.MCC.C.Dist(g.Loc(m)); m != q && at[g.Loc(m)] == 1 && (b < 0 || d > res.MCC.C.Dist(g.Loc(b))) {
			b = m
		}
	}
	rank := slices.Index(s.curView.verts, b)
	qp, bp := g.Loc(q), g.Loc(b)
	sin, cos := math.Sincos(0.05)
	dx, dy := bp.X-qp.X, bp.Y-qp.Y
	g.SetLoc(b, geom.Point{X: qp.X + dx*cos - dy*sin, Y: qp.Y + dx*sin + dy*cos})

	moved := hot(q)
	if moved.Stats.ViewRepairs != 1 || moved.Stats.ViewRebuilds != 0 || slices.Index(s.curView.verts, b) != rank {
		t.Fatalf("fixture: the check-in of %d did not keep its rank %d in a repaired view: rank %d, %+v",
			b, rank, slices.Index(s.curView.verts, b), moved.Stats)
	}
	if want := fresh(q); !slices.Equal(want.Members, res.Members) || want.MCC == res.MCC {
		t.Fatalf("fixture: rotating %d about q changed the members (%v) or left the MCC (%v)",
			b, !slices.Equal(want.Members, res.Members), want.MCC == res.MCC)
	}
	checkFresh("after the check-in", q, moved)
	checkFresh("repeat after the check-in", q, hot(q))

	// Two query vertices of one community, in turn.
	q2 := res.Members[len(res.Members)/2]
	if q2 == q {
		q2 = res.Members[0]
	}
	for i := 0; i < 3; i++ {
		for _, v := range []graph.V{q, q2} {
			checkFresh("alternating", v, hot(v))
		}
	}
}
