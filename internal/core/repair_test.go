package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
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
	builds       int // prefix oracles built from nothing
	repairs      int // prefix oracles repaired from their last build
}

func (a *repairTally) add(b repairTally) {
	a.queries += b.queries
	a.kept += b.kept
	a.keptNegative += b.keptNegative
	a.dropped += b.dropped
	a.viewHits += b.viewHits
	a.viewRepairs += b.viewRepairs
	a.viewRebuilds += b.viewRebuilds
	a.builds += b.builds
	a.repairs += b.repairs
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
// stands, and its view's prefix oracle — comm, joinAt and minFeasible,
// whether it was built or repaired — to equal the fresh one bit for bit.
// Mutations pile up between queries: small steps, teleports, moves
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
				if ok, err := warm.Apply(graph.Write{Kind: graph.WriteRemoveEdge, V: e[0], W: e[1]}); err != nil {
					t.Fatal(err)
				} else if ok {
					edgeOps++
				}
			case r < 16: // delete some edge
				u := graph.V(rnd.Intn(n))
				if nb := g.Neighbors(u); len(nb) > 0 {
					if ok, err := warm.Apply(graph.Write{Kind: graph.WriteRemoveEdge, V: u, W: nb[rnd.Intn(len(nb))]}); err != nil {
						t.Fatal(err)
					} else if ok {
						edgeOps++
					}
				}
			default: // insert
				u, w := graph.V(rnd.Intn(n)), graph.V(rnd.Intn(n))
				if ok, err := warm.Apply(graph.Write{Kind: graph.WriteAddEdge, V: u, W: w}); err != nil {
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
		tally.builds += st.OracleBuilds
		tally.repairs += st.OracleRepairs
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
		// A query that probed no prefix leaves the fresh oracle unbuilt; the
		// warm one may still stand from an earlier query.
		if w, f := &warm.curView.oracle, &fresh.curView.oracle; built(f) &&
			(!built(w) || !slices.Equal(w.comm, f.comm) || !slices.Equal(w.joinAt, f.joinAt) || w.minFeasible != f.minFeasible) {
			t.Fatalf("seed %d step %d %s q=%d k=%d: warm oracle (built %v, %d members, minFeasible %d, repairs %d) differs from a fresh build (built %v, %d members, minFeasible %d)",
				seed, step, query.Algo, query.Q, query.K, built(w), len(w.comm), w.minFeasible, st.OracleRepairs,
				built(f), len(f.comm), f.minFeasible)
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
	if total.kept == 0 || total.viewRepairs == 0 || total.viewRebuilds == 0 || total.viewHits == 0 ||
		total.builds == 0 || total.repairs == 0 {
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
	if total.viewRepairs == 0 || total.viewRebuilds == 0 || total.viewHits == 0 || total.builds == 0 || total.repairs == 0 {
		t.Fatalf("a view outcome never occurred: %+v", total)
	}
}

// TestRepairDoesNotAllocate pins the steady state under churn with no
// concurrent reader: once the scratch has grown, bringing a cached community
// and a view across a write — a member moved to a new rank, an inside edge
// toggled — onto new versions, the view's prefix oracle repaired, takes
// every version, entry and member-sized array off the free lists the ones
// they replace fill, and allocates nothing beyond what the write itself
// does.
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
		if s.curView.prefixFeasible(len(cand.verts)) == nil {
			t.Fatal("full candidate set infeasible")
		}
	}
	probe()

	// The mover alternates between q's side, where it ranks near the front,
	// and q's opposite corner, where it ranks last: every move changes its
	// rank.
	far := false
	qp := g.Loc(q)
	move := func() {
		far = !far
		p := geom.Point{X: qp.X + 1e-6, Y: qp.Y}
		if far {
			p = geom.Point{X: math.Round(1 - qp.X), Y: math.Round(1 - qp.Y)}
		}
		g.SetLoc(mover, p)
	}
	move()
	probe() // the second build, from which the oracle keeps what a repair needs
	insert := false
	toggle := func() {
		insert = !insert
		var err error
		if insert {
			_, err = s.Apply(graph.Write{Kind: graph.WriteAddEdge, V: mover, W: other})
		} else {
			_, err = s.Apply(graph.Write{Kind: graph.WriteRemoveEdge, V: mover, W: other})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	n := len(s.curView.verts)
	for _, c := range []struct {
		name  string
		write func()
		count func() int
	}{
		{"check-in", move, func() int { return s.stats.ViewRepairs }},
		{"edge op", toggle, func() int { return s.stats.CacheHits }},
	} {
		writeOnly, writeBytes := allocsPerRun(c.write)
		probe() // catch up with the odd number of writes just made
		before := s.curView
		both, bothBytes := allocsPerRun(func() {
			c.write()
			probe()
			if c.count() != 1 || s.stats.EntriesDropped != 0 || s.stats.ViewRebuilds != 0 ||
				s.stats.OracleRepairs != 1 || s.stats.OracleBuilds != 0 {
				t.Fatalf("%s: not repaired: %+v", c.name, s.stats)
			}
		})
		if s.curView == before {
			t.Errorf("%s: the view was repaired in place, not onto a new version", c.name)
		}
		if both > writeOnly || bothBytes-writeBytes >= uint64(4*n) {
			t.Errorf("%s: repair allocated %v times and %d bytes per run on top of the write's %v and %d (members %d)",
				c.name, both-writeOnly, bothBytes-writeBytes, writeOnly, writeBytes, n)
		}
	}
}

// allocsPerRun is testing.AllocsPerRun, and the bytes a run of f allocates
// over as many runs again.
func allocsPerRun(f func()) (float64, uint64) {
	const runs = 20
	allocs := testing.AllocsPerRun(runs, f)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	start := ms.TotalAlloc
	for range runs {
		f()
	}
	runtime.ReadMemStats(&ms)
	return allocs, (ms.TotalAlloc - start) / runs
}

// TestOracleRepairEachInterval drives each kind of dirty interval through
// one warm view and requires, after every write, the repaired oracle to
// equal a fresh build bit for bit — comm, joinAt, minFeasible and the
// answer — and the path that ran to be the one the write calls for: a
// repair over a short window for a small step, over nearly every length for
// a member teleported to the far corner, over no window for an insert past
// both ends' join point; a build from nothing when q itself moves or more
// than maxRepositioned members do.
func TestOracleRepairEachInterval(t *testing.T) {
	ds, err := dataset.Load("syn1", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	const k = 4
	s := NewSearcher(g)
	q := eligible(s, k, 1)[0]
	ctx := context.Background()
	query := func(what string) Stats {
		t.Helper()
		got, err := s.Search(ctx, Query{Algo: "appinc", Q: q, K: k})
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		fresh := NewSearcher(g)
		want, err := fresh.Search(ctx, Query{Algo: "appinc", Q: q, K: k})
		if err != nil {
			t.Fatalf("%s: fresh: %v", what, err)
		}
		w, f := &s.curView.oracle, &fresh.curView.oracle
		if !built(w) || !slices.Equal(w.comm, f.comm) || !slices.Equal(w.joinAt, f.joinAt) || w.minFeasible != f.minFeasible {
			t.Fatalf("%s: oracle (built %v, %d members, minFeasible %d) differs from a fresh build (%d members, minFeasible %d)",
				what, built(w), len(w.comm), w.minFeasible, len(f.comm), f.minFeasible)
		}
		if !slices.Equal(got.Members, want.Members) || got.MCC != want.MCC || got.Delta != want.Delta {
			t.Fatalf("%s: answer differs from a fresh searcher's: %d/%d members, MCC %v/%v, δ %v/%v", what, len(got.Members), len(want.Members), got.MCC, want.MCC, got.Delta, want.Delta)
		}
		return got.Stats
	}
	// rankOf and joinOf read the warm view as the last query left it.
	rankOf := func(v graph.V) int32 { return int32(slices.Index(s.curView.verts, v)) }
	joinOf := func(v graph.V) int32 { return s.curView.oracle.joinAt[slices.Index(s.curView.oracle.comm, v)] }
	moveTo := func(v graph.V, d float64) { // along the ray from q, to distance d
		qp, vp := g.Loc(q), g.Loc(v)
		r := qp.Dist(vp)
		g.SetLoc(v, geom.Point{X: qp.X + (vp.X-qp.X)*d/r, Y: qp.Y + (vp.Y-qp.Y)*d/r})
	}
	distAt := func(rank int32) float64 { return g.Loc(q).Dist(g.Loc(s.curView.verts[rank])) }
	// findPair returns two non-adjacent members whose ends satisfy ok.
	findPair := func(ok func(u, w graph.V) bool) (graph.V, graph.V) {
		t.Helper()
		vs := s.curView.verts
		for i := len(vs) / 4; i < len(vs); i++ {
			for j := i + 1; j < len(vs) && j < i+200; j++ {
				if u, w := vs[i], vs[j]; u != q && w != q && !g.HasEdge(u, w) && ok(u, w) {
					return u, w
				}
			}
		}
		t.Fatal("fixture: no such pair")
		return -1, -1
	}

	query("first build")
	n := int32(len(s.curView.verts))
	moveTo(s.curView.verts[n/2], distAt(n/2+3))
	if st := query("second build"); st.OracleBuilds != 1 || n < 1000 {
		t.Fatalf("fixture: the second build is not from nothing (%+v) or |X| = %d is small", st, n)
	}

	type step struct {
		name  string
		write func()
		check func(st Stats) bool
	}
	var insU, insW graph.V
	repaired := func(lo, hi int) func(Stats) bool {
		return func(st Stats) bool {
			return st.OracleRepairs == 1 && st.OracleBuilds == 0 && st.OracleRepairSpan >= lo && st.OracleRepairSpan <= hi
		}
	}
	built := func(st Stats) bool { return st.OracleBuilds == 1 && st.OracleRepairs == 0 && st.ViewRebuilds == 1 }
	for _, c := range []step{
		{"small step", func() {
			r := n / 3
			moveTo(s.curView.verts[r], (distAt(r+5)+distAt(r+6))/2)
		}, repaired(1, 12)},
		{"teleport to the far corner", func() {
			v := s.curView.verts[5]
			qp := g.Loc(q)
			g.SetLoc(v, geom.Point{X: math.Round(1 - qp.X), Y: math.Round(1 - qp.Y)})
		}, repaired(int(n)*3/4, int(n))},
		{"a repair cut short by its context, then run", func() {
			r := n / 4
			published := s.curView
			moveTo(s.curView.verts[r], (distAt(r+5)+distAt(r+6))/2)
			s.begin(newCountdown(1)) // candidates' own check passes, the repair's fires
			if _, err := s.candidates(q, k); !errors.Is(err, ErrCanceled) ||
				s.curEntry.views.views[0].cur.Load() != published || !published.oracle.kept {
				t.Fatalf("a canceled repair completed (%v), or dropped the state it starts from", err)
			}
			s.release()
		}, repaired(1, 12)},
		{"co-located tie", func() {
			r := n / 2
			g.SetLoc(s.curView.verts[r], g.Loc(s.curView.verts[r+7]))
		}, repaired(1, 12)},
		{"insert before the join point", func() {
			insU, insW = findPair(func(u, w graph.V) bool {
				return max(joinOf(u), joinOf(w)) > max(rankOf(u), rankOf(w))+1
			})
			if _, err := s.Apply(graph.Write{Kind: graph.WriteAddEdge, V: insU, W: insW}); err != nil {
				t.Fatal(err)
			}
		}, repaired(1, int(n))},
		{"delete", func() {
			if _, err := s.Apply(graph.Write{Kind: graph.WriteRemoveEdge, V: insU, W: insW}); err != nil {
				t.Fatal(err)
			}
		}, repaired(1, int(n))},
		{"insert past the join point", func() {
			insU, insW = findPair(func(u, w graph.V) bool {
				return joinOf(u) == rankOf(u)+1 && joinOf(w) == rankOf(w)+1
			})
			if _, err := s.Apply(graph.Write{Kind: graph.WriteAddEdge, V: insU, W: insW}); err != nil {
				t.Fatal(err)
			}
		}, repaired(0, 0)},
		{"q's own move", func() {
			p := g.Loc(q)
			g.SetLoc(q, geom.Point{X: p.X + 0.002, Y: p.Y})
		}, built},
		{"a burst past maxRepositioned", func() {
			for r := int32(1); r <= maxRepositioned+1; r++ {
				v := s.curView.verts[r*(n/(maxRepositioned+2))]
				p := g.Loc(v)
				g.SetLoc(v, geom.Point{X: p.X + 1e-4, Y: p.Y})
			}
		}, built},
	} {
		c.write()
		st := query(c.name)
		t.Logf("%s: builds %d, repairs %d over %d of %d lengths", c.name, st.OracleBuilds, st.OracleRepairs, st.OracleRepairSpan, n)
		if !c.check(st) {
			t.Errorf("%s: took the wrong path: builds %d, repairs %d over %d lengths (|X| = %d), view rebuilds %d",
				c.name, st.OracleBuilds, st.OracleRepairs, st.OracleRepairSpan, n, st.ViewRebuilds)
		}
	}
}
