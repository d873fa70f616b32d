package core

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"sacsearch/internal/dataset"
	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
)

// repairTally counts what a churn script made the warm searcher's cache do.
type repairTally struct {
	queries      int
	kept         int // communities served from an entry that was revalidated across edge ops
	keptNegative int // likewise for "no community" entries
	dropped      int
	viewHits     int
	viewRepairs  int
	viewRebuilds int
}

func (a *repairTally) add(b repairTally) {
	a.queries += b.queries
	a.kept += b.kept
	a.keptNegative += b.keptNegative
	a.dropped += b.dropped
	a.viewHits += b.viewHits
	a.viewRepairs += b.viewRepairs
	a.viewRebuilds += b.viewRebuilds
}

// repairAlgos are the algorithms the churn scripts rotate through. Exact+ is
// dealt once in twenty: it is the expensive one (0.1 s a query on the dense
// preset at k = 6), and it shares its candidate and feasibility paths with
// AppAcc.
var repairAlgos = []Query{
	{Algo: "appfast"}, {Algo: "appinc"}, {Algo: "appacc"}, {Algo: "appfast", EpsF: Float(0)}, {Algo: "appinc"},
	{Algo: "appfast"}, {Algo: "appacc"}, {Algo: "appinc"}, {Algo: "appfast"}, {Algo: "exact+"},
	{Algo: "appfast"}, {Algo: "appinc"}, {Algo: "appacc"}, {Algo: "appfast", EpsF: Float(0)}, {Algo: "appinc"},
	{Algo: "appfast"}, {Algo: "appacc"}, {Algo: "appinc"}, {Algo: "appfast"}, {Algo: "appinc"},
}

// runRepairScript drives one warm searcher through steps rounds of "a few
// mutations, then a query" on its own graph and requires every answer — and
// the repaired view's order — to equal a fresh searcher's on the graph as it
// stands. Mutations pile up between queries: small steps, teleports, moves
// of the query vertices themselves, edge inserts and deletes, and now and
// then a burst longer than the reposition limit or the journal itself.
func runRepairScript(t *testing.T, g *graph.Graph, ks []int, hot []graph.V, steps int, seed int64) repairTally {
	t.Helper()
	rnd := rand.New(rand.NewSource(seed))
	warm := NewSearcher(g)
	n := g.NumVertices()
	var inserted [][2]graph.V
	var tally repairTally
	ctx := context.Background()

	mutate := func() (edgeOps int) {
		count := rnd.Intn(6)
		switch rnd.Intn(40) {
		case 0:
			count = maxRepositioned + 20 + rnd.Intn(40) // past the reposition limit
		case 1:
			count = 300 // laps the journal
		}
		for i := 0; i < count; i++ {
			switch r := rnd.Intn(20); {
			case r < 8: // small step
				v := graph.V(rnd.Intn(n))
				p := g.Loc(v)
				g.SetLoc(v, geom.Point{X: p.X + rnd.NormFloat64()*0.01, Y: p.Y + rnd.NormFloat64()*0.01})
			case r < 11: // teleport
				g.SetLoc(graph.V(rnd.Intn(n)), geom.Point{X: rnd.Float64(), Y: rnd.Float64()})
			case r < 12: // a query vertex moves, or checks in where it stands
				v := hot[rnd.Intn(len(hot))]
				p := g.Loc(v)
				if rnd.Intn(2) == 0 {
					p.X += rnd.NormFloat64() * 0.02
				}
				g.SetLoc(v, p)
			case r < 14 && len(inserted) > 0: // delete an edge the script added
				i := rnd.Intn(len(inserted))
				e := inserted[i]
				inserted[i] = inserted[len(inserted)-1]
				inserted = inserted[:len(inserted)-1]
				if ok, err := warm.ApplyEdgeRemove(e[0], e[1]); err != nil {
					t.Fatal(err)
				} else if ok {
					edgeOps++
				}
			case r < 16: // delete some edge
				u := graph.V(rnd.Intn(n))
				if nb := g.Neighbors(u); len(nb) > 0 {
					if ok, err := warm.ApplyEdgeRemove(u, nb[rnd.Intn(len(nb))]); err != nil {
						t.Fatal(err)
					} else if ok {
						edgeOps++
					}
				}
			default: // insert
				u, w := graph.V(rnd.Intn(n)), graph.V(rnd.Intn(n))
				if ok, err := warm.ApplyEdgeInsert(u, w); err != nil {
					t.Fatal(err)
				} else if ok {
					inserted = append(inserted, [2]graph.V{u, w})
					edgeOps++
				}
			}
		}
		return edgeOps
	}

	for step := 0; step < steps; step++ {
		edgeOps := mutate()
		query := repairAlgos[step%len(repairAlgos)]
		query.Q, query.K = hot[rnd.Intn(len(hot))], ks[rnd.Intn(len(ks))]
		got, gotErr := warm.Search(ctx, query)
		st := warm.stats
		tally.queries++
		tally.dropped += st.EntriesDropped
		tally.viewHits += st.ViewHits
		tally.viewRepairs += st.ViewRepairs
		tally.viewRebuilds += st.ViewRebuilds
		if st.CacheHits > 0 && edgeOps > 0 {
			// The entry predates the edge ops, so revalidate kept it.
			if gotErr == nil {
				tally.kept++
			} else {
				tally.keptNegative++
			}
		}

		fresh := NewSearcher(g)
		want, wantErr := fresh.Search(ctx, query)
		if (gotErr == nil) != (wantErr == nil) ||
			gotErr != nil && !(errors.Is(gotErr, ErrNoCommunity) && errors.Is(wantErr, ErrNoCommunity)) {
			t.Fatalf("seed %d step %d %s q=%d k=%d: warm err %v, fresh err %v",
				seed, step, query.Algo, query.Q, query.K, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		if !slices.Equal(got.Members, want.Members) || got.MCC != want.MCC || got.Delta != want.Delta ||
			got.Stats.CandidateSize != want.Stats.CandidateSize {
			t.Fatalf("seed %d step %d %s q=%d k=%d: warm %d members |X|=%d MCC %+v δ %v, fresh %d members |X|=%d MCC %+v δ %v",
				seed, step, query.Algo, query.Q, query.K,
				len(got.Members), got.Stats.CandidateSize, got.MCC, got.Delta,
				len(want.Members), want.Stats.CandidateSize, want.MCC, want.Delta)
		}
		if !slices.Equal(warm.curView.verts, fresh.curView.verts) {
			t.Fatalf("seed %d step %d q=%d k=%d: repaired view order differs from a fresh sort",
				seed, step, query.Q, query.K)
		}
	}
	return tally
}

// hotVertices picks count vertices of core number ≥ k, spread over the ids.
func hotVertices(g *graph.Graph, k, count int) []graph.V {
	s := NewSearcher(g)
	var eligible []graph.V
	for v := 0; v < g.NumVertices(); v++ {
		if s.CoreNumber(graph.V(v)) >= k {
			eligible = append(eligible, graph.V(v))
		}
	}
	if len(eligible) <= count {
		return eligible
	}
	hot := make([]graph.V, count)
	for i := range hot {
		hot[i] = eligible[i*len(eligible)/count]
	}
	return hot
}

// TestRepairMatchesFreshDense is the repaired ≡ fresh differential on the
// dense preset the serving benchmark uses (one giant k-core: entries are
// almost always kept, every check-in moves a member). k = 6 runs on the
// smaller cut because Exact+ takes 0.1 s a query there on the larger one.
func TestRepairMatchesFreshDense(t *testing.T) {
	steps := 150
	if testing.Short() {
		steps = 50
	}
	var total repairTally
	for _, c := range []struct {
		k     int
		scale float64
	}{{3, 0.05}, {4, 0.05}, {6, 0.02}} {
		ds, err := dataset.Load("syn1", c.scale)
		if err != nil {
			t.Fatal(err)
		}
		hot := hotVertices(ds.Graph, c.k, 6)
		if len(hot) < 6 {
			t.Fatalf("k=%d: only %d eligible vertices", c.k, len(hot))
		}
		total.add(runRepairScript(t, ds.Graph, []int{c.k}, hot, steps, int64(100+c.k)))
	}
	t.Logf("dense: %+v", total)
	if total.kept == 0 || total.viewRepairs == 0 || total.viewRebuilds == 0 || total.viewHits == 0 {
		t.Fatalf("a repair outcome never occurred: %+v", total)
	}
}

// TestRepairMatchesFreshSparse runs the same differential on sparse random
// graphs, where an edge op routinely splits, merges or dissolves a k-core
// community, so memberships really change and both outcomes of revalidation
// — entry kept, entry dropped — must show up.
func TestRepairMatchesFreshSparse(t *testing.T) {
	scripts, steps := 12, 400
	if testing.Short() {
		scripts, steps = 6, 150
	}
	var total repairTally
	for i := 0; i < scripts; i++ {
		seed := int64(7 + 13*i)
		n := 120 + 40*(i%3)
		g := latticeGraph(seed, n, n*(5+i%3)/2, 1000)
		k := 2 + i%2
		hot := hotVertices(g, k, 8)
		if len(hot) == 0 {
			t.Fatalf("script %d: no vertex of core number ≥ %d", i, k)
		}
		total.add(runRepairScript(t, g, []int{k, k + 1}, hot, steps, seed))
	}
	t.Logf("sparse: %+v", total)
	if total.kept == 0 || total.keptNegative == 0 || total.dropped == 0 {
		t.Fatalf("need both kept and dropped entries: %+v", total)
	}
	if total.viewRepairs == 0 || total.viewRebuilds == 0 || total.viewHits == 0 {
		t.Fatalf("a view outcome never occurred: %+v", total)
	}
}

// TestRepairDoesNotAllocate pins the steady state under churn: once the
// scratch has grown, bringing a cached community and a view across a write —
// a member moved to a new rank, an inside edge toggled — and rebuilding the
// invalidated oracle allocates nothing beyond what the write itself does.
func TestRepairDoesNotAllocate(t *testing.T) {
	g := latticeGraph(3, 400, 2400, 40)
	s := NewSearcher(g)
	var members []graph.V
	for v := 0; v < g.NumVertices() && len(members) < 3; v++ {
		if s.CoreNumber(graph.V(v)) >= 5 {
			members = append(members, graph.V(v))
		}
	}
	q, mover, other := members[0], members[1], members[2]
	if g.HasEdge(mover, other) {
		t.Fatalf("fixture: %d and %d are already adjacent", mover, other)
	}
	probe := func() {
		s.begin(context.Background())
		cand, err := s.candidates(q, 4)
		if err != nil {
			t.Fatal(err)
		}
		if s.prefixFeasible(s.curEntry, s.curView, len(cand.verts), q, 4) == nil {
			t.Fatal("full candidate set infeasible")
		}
	}
	probe()

	far := false
	move := func() {
		far = !far
		p := geom.Point{X: 0.01, Y: 0.01}
		if far {
			p = geom.Point{X: 0.99, Y: 0.99}
		}
		g.SetLoc(mover, p)
	}
	insert := false
	toggle := func() {
		insert = !insert
		var err error
		if insert {
			_, err = s.ApplyEdgeInsert(mover, other)
		} else {
			_, err = s.ApplyEdgeRemove(mover, other)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name  string
		write func()
		count func() int
	}{
		{"check-in", move, func() int { return s.stats.ViewRepairs }},
		{"edge op", toggle, func() int { return s.stats.CacheHits }},
	} {
		before := s.curView.oracle.comm
		writeOnly := testing.AllocsPerRun(20, c.write)
		both := testing.AllocsPerRun(20, func() {
			c.write()
			probe()
			if c.count() != 1 || s.stats.EntriesDropped != 0 || s.stats.ViewRebuilds != 0 {
				t.Fatalf("%s: not repaired: %+v", c.name, s.stats)
			}
		})
		if both > writeOnly {
			t.Errorf("%s: repair allocated %v times per run on top of the write's %v", c.name, both-writeOnly, writeOnly)
		}
		if !s.curView.oracle.built || &s.curView.oracle.comm[0] != &before[0] {
			t.Errorf("%s: the rebuilt oracle is not on the buffers the invalidated one released", c.name)
		}
	}
}
