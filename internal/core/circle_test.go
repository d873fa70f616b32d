package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sacsearch/internal/dataset"
	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
	"sacsearch/internal/kcore"
)

// The grid-position peel against kcore.Peeler.KCoreWithin, the reference that
// shares nothing with it but the graph: same answer as a *sequence* (BFS from
// q over rows in ascending neighbour id), because MCC arithmetic over the
// members is not order-independent at the ulp level and AppAcc's radii, its
// pruning decisions and Exact+'s δ are built on it.

// peelRig is a searcher armed for (q, k) with a working set indexed, beside
// an independent global peeler over the same graph.
type peelRig struct {
	t   *testing.T
	s   *Searcher
	ref *kcore.Peeler
	q   graph.V
	k   int
}

// armPeel runs the query lifecycle up to the point an algorithm body starts
// and indexes pick(candidates) as the working set.
func armPeel(t *testing.T, s *Searcher, q graph.V, k int, pick func(cand *candidateSet) []graph.V) *peelRig {
	t.Helper()
	s.begin(context.Background())
	cand, err := s.candidates(q, k)
	if err != nil {
		t.Fatalf("candidates(%d, %d): %v", q, k, err)
	}
	s.indexWorkingSet(pick(cand), q)
	if !s.ws.peelable {
		t.Fatal("a cached k-core query did not get a position CSR")
	}
	return &peelRig{t: t, s: s, ref: kcore.NewPeeler(s.g), q: q, k: k}
}

func wholeSet(cand *candidateSet) []graph.V { return cand.verts }

// probe checks one circleFeasible call (from nil: cut from the grid): one
// feasibility check counted, and the reference's sequence for the ids the
// grid gathers.
func (r *peelRig) probe(label string, cc geom.Circle, from []int32) []graph.V {
	r.t.Helper()
	before := r.s.stats.FeasibilityChecks
	got := r.s.circleFeasible(cc, r.q, r.k, from)
	if n := r.s.stats.FeasibilityChecks - before; n != 1 {
		r.t.Fatalf("%s: counted %d feasibility checks, want 1", label, n)
	}
	want := r.ref.KCoreWithin(r.s.ws.grid.InCircle(cc, nil), r.q, r.k)
	if !slices.Equal(got, want) {
		r.t.Fatalf("%s: q=%d k=%d circle %+v (from held: %v)\n got %v\nwant %v", label, r.q, r.k, cc, from != nil, got, want)
	}
	return got
}

// shrinking checks the held-answer door the way anchorSearch uses it: a
// feasible probe, then smaller concentric circles cut from its answer, each
// feasible one becoming the next to cut from.
func (r *peelRig) shrinking(label string, cc geom.Circle) {
	r.t.Helper()
	if r.probe(label, cc, nil) == nil {
		return
	}
	held := r.s.holdAnswer()
	for _, f := range []float64{0.97, 0.8, 0.8, 0.5, 0.9, 0.3} {
		cc.R *= f
		if r.probe(label+" shrunk", cc, held) != nil {
			held = r.s.holdAnswer()
		}
	}
}

// eligible returns up to count vertices of core number ≥ k, spread over the
// id range.
func eligible(s *Searcher, k, count int) []graph.V {
	var out []graph.V
	n := s.g.NumVertices()
	for i := 0; i < n && len(out) < count; i++ {
		if v := graph.V((i * 7919) % n); s.CoreNumber(v) >= k {
			out = append(out, v)
		}
	}
	return out
}

func TestGridPeelRandomCircles(t *testing.T) {
	ds, err := dataset.Load("syn1", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	s := NewSearcher(g)
	rnd := rand.New(rand.NewSource(24))
	feasible := 0
	for k := 2; k <= 5; k++ {
		for _, q := range eligible(s, k, 5) {
			// Once over all of X (Exact's working set) and once over the k-ĉore
			// of a distance prefix (AppAcc's S), where a community member can
			// lie outside the working set.
			for _, pick := range []func(*candidateSet) []graph.V{
				wholeSet,
				func(cand *candidateSet) []graph.V {
					S := s.feasible(cand.verts[:len(cand.verts)*2/3], q, k)
					if S == nil {
						return cand.verts
					}
					return slices.Clone(S)
				},
			} {
				r := armPeel(t, s, q, k, pick)
				qp := g.Loc(q)
				for i := 0; i < 60; i++ {
					c := geom.Point{X: qp.X + rnd.NormFloat64()*0.1, Y: qp.Y + rnd.NormFloat64()*0.1}
					cc := geom.Circle{C: c, R: c.Dist(qp) * (0.5 + rnd.Float64()*2)}
					if r.probe("random", cc, nil) != nil {
						feasible++
					}
					r.shrinking("random", cc)
				}
				r.probe("q outside", geom.Circle{C: geom.Point{X: qp.X + 0.2, Y: qp.Y}, R: 0.1}, nil)
				r.probe("empty gather", geom.Circle{C: geom.Point{X: -5, Y: -5}, R: 0.01}, nil)
				r.probe("negative radius", geom.Circle{C: qp, R: -1}, nil)
				if r.probe("everything", geom.Circle{C: qp, R: 10}, nil) == nil {
					t.Fatalf("q=%d k=%d: the whole working set is infeasible", q, k)
				}
				r.shrinking("everything", geom.Circle{C: qp, R: 10})
			}
		}
	}
	if feasible < 100 {
		t.Fatalf("only %d feasible random circles: the fixture does not exercise the peel", feasible)
	}
}

// TestGridPeelTies is the same differential where the geometry ties: vertices
// on a coarse lattice (co-located, equidistant), circles whose boundary runs
// exactly through vertices, q among them.
func TestGridPeelTies(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		g := latticeGraph(seed, 300, 1300+100*int(seed), 8)
		s := NewSearcher(g)
		rnd := rand.New(rand.NewSource(seed * 31))
		for k := 2; k <= 5; k++ {
			for _, q := range eligible(s, k, 3) {
				r := armPeel(t, s, q, k, wholeSet)
				qp := g.Loc(q)
				X := s.cand.verts
				for i := 0; i < 40; i++ {
					a, b := g.Loc(X[rnd.Intn(len(X))]), g.Loc(X[rnd.Intn(len(X))])
					// Centred on a vertex, q exactly on the boundary.
					r.shrinking("q on boundary", geom.Circle{C: a, R: a.Dist(qp)})
					// Centred on q, another vertex (and its lattice twins) on it.
					r.shrinking("vertex on boundary", geom.Circle{C: qp, R: qp.Dist(a)})
					// The circles the exact scans enumerate: q and one or two
					// more vertices fix them.
					r.shrinking("diameter", geom.CircleFrom2(qp, a))
					r.shrinking("three-point", geom.CircleFrom3(qp, a, b))
				}
				r.probe("radius zero at q", geom.Circle{C: qp}, nil)
			}
		}
	}
}

// TestGridPeelAfterSetLoc moves members between queries: the grid and the
// CSR are per query, so the next index reflects the new locations while the
// cache entry underneath (and its induced rows) is the same one.
func TestGridPeelAfterSetLoc(t *testing.T) {
	g := latticeGraph(9, 300, 1500, 12)
	s := NewSearcher(g)
	rnd := rand.New(rand.NewSource(5))
	q := eligible(s, 3, 1)[0]
	for round := 0; round < 6; round++ {
		r := armPeel(t, s, q, 3, wholeSet)
		if round > 0 && s.stats.CacheHits != 1 {
			t.Fatalf("round %d: the entry was not reused", round)
		}
		X := s.cand.verts
		for i := 0; i < 30; i++ {
			a := g.Loc(X[rnd.Intn(len(X))])
			r.shrinking("after move", geom.Circle{C: a, R: a.Dist(g.Loc(q)) * (1 + rnd.Float64())})
		}
		for i := 0; i < 10; i++ {
			g.SetLoc(X[rnd.Intn(len(X))], geom.Point{X: rnd.Float64(), Y: rnd.Float64()})
		}
		if round == 3 {
			g.SetLoc(q, geom.Point{X: 0.5, Y: 0.5}) // q itself: the view re-sorts
			s.pk.epoch = math.MaxUint32 - 5         // and the next round's probes cross the epoch wrap
		}
	}
}

// TestGridPeelIDSubsets is the door the minimum-diameter searches use: a
// subset of the working set named by vertex id, in any order, through
// feasible.
func TestGridPeelIDSubsets(t *testing.T) {
	g := latticeGraph(6, 200, 1200, 10)
	s := NewSearcher(g)
	rnd := rand.New(rand.NewSource(8))
	for k := 2; k <= 5; k++ {
		for _, q := range eligible(s, k, 3) {
			r := armPeel(t, s, q, k, wholeSet)
			X := slices.Clone(s.cand.verts)
			for i := 0; i < 80; i++ {
				rnd.Shuffle(len(X), func(a, b int) { X[a], X[b] = X[b], X[a] })
				sub := X[:rnd.Intn(len(X)+1)]
				got := s.feasible(sub, q, k)
				want := r.ref.KCoreWithin(sub, q, k)
				if !slices.Equal(got, want) {
					t.Fatalf("q=%d k=%d subset %v\n got %v\nwant %v", q, k, sub, got, want)
				}
			}
		}
	}
	// And end to end: the lens search on the warm searcher answers what a
	// fresh one does, and its answer is a connected 3-core holding q by the
	// global peeler's reckoning — KCoreWithin keeps all of it — whose
	// diameter is the δ reported.
	for _, q := range eligible(s, 3, 4) {
		a, errA := s.MinDiamLens(q, 3)
		b, errB := NewSearcher(g).MinDiamLens(q, 3)
		if errA != nil || errB != nil {
			t.Fatalf("q=%d: %v / %v", q, errA, errB)
		}
		if !slices.Equal(a.Members, b.Members) || a.Delta != b.Delta {
			t.Fatalf("q=%d: lens search depends on cache history: %v (%v) vs %v (%v)", q, a.Members, a.Delta, b.Members, b.Delta)
		}
		if c := kcore.NewPeeler(g).KCoreWithin(a.Members, q, 3); len(c) != len(a.Members) || a.Delta != DiameterOf(g, a.Members) {
			t.Fatalf("q=%d: lens answer %v (δ %v) is not a connected 3-core of diameter δ", q, a.Members, a.Delta)
		}
	}
}

// TestGridPeelParallelSharesCSR runs the strip-parallel exact scans on a
// cached k-core query at GOMAXPROCS 2, where the dispatching searcher and
// its helper both peel the dispatcher's CSR through a pointer with their own
// state arrays: the race detector's case, and answers identical to the
// serial scan.
func TestGridPeelParallelSharesCSR(t *testing.T) {
	g := spreadClique(4, 40)
	serial, par := NewSearcher(g), NewSearcher(g)
	for _, algo := range []string{"exact", "exact+"} {
		for _, q := range []graph.V{0, 17} {
			query := Query{Algo: algo, Q: q, K: 30}
			SetProcs(t, 1)
			want, err := serial.Search(context.Background(), query)
			if err != nil {
				t.Fatal(err)
			}
			SetProcs(t, 2)
			got, err := par.Search(context.Background(), query)
			if err != nil {
				t.Fatal(err)
			}
			diffResults(t, algo, want, got)
		}
	}
	if !par.ws.peelable {
		t.Fatal("the parallel searcher did not index a position CSR")
	}
	if par.pool == nil {
		t.Fatal("no scan borrowed a helper")
	}
	// The helpers are back in the pool the searcher made for itself.
	peeled := 0
	for _, w := range par.pool.idle {
		if w.ws.peelable || w.wsFrom != nil {
			t.Fatal("a helper indexed a working set of its own or kept its parent's")
		}
		if w.pk.epoch > 0 {
			peeled++
		}
	}
	if peeled == 0 { // a short scan can be over before a helper claims a strip
		t.Fatalf("none of %d helpers peeled positions", len(par.pool.idle))
	}
}

// TestAppAccAllocs pins appAccState's "allocates nothing in steady state": a
// hot AppAcc query — its view, oracle, grid, CSR, frontier levels, point
// buffer and incumbents all grown by the first run — allocates what any
// query does for its Result (the struct and the member copy) and nothing for
// the refinement.
func TestAppAccAllocs(t *testing.T) {
	ds, err := dataset.Load("syn1", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSearcher(ds.Graph)
	q := eligible(s, 4, 1)[0]
	// The lifecycle below Search, whose lookup of the algorithm's name is not
	// the refinement's to answer for.
	hot := func() *Result {
		// No registry key: no answer table, so every run runs the body.
		a, err := s.run(context.Background(), Resolved{Q: q, K: 4, EpsA: 0.5}, (*Searcher).appAccBody, false)
		if err != nil {
			t.Fatal(err)
		}
		return &a.Result
	}
	res := hot()
	if res.Stats.AnchorsProcessed < 4 || res.Stats.FeasibilityChecks < 10 {
		t.Fatalf("fixture: the refinement barely ran: %+v", res.Stats)
	}
	floor := testing.AllocsPerRun(20, func() { s.buildAnswer(q, 4, res.Members, res.Delta) })
	if got := testing.AllocsPerRun(20, func() { hot() }); got > floor {
		t.Fatalf("a hot AppAcc query allocates %v times, buildAnswer alone %v", got, floor)
	}
}
