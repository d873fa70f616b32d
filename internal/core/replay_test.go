package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
	"sacsearch/internal/kcore"
)

// hubGraph is a spatial preferential-attachment graph: each vertex after the
// first m+1 links to m earlier ones drawn by degree, so vertex 0 is a hub of
// high degree, and every vertex has at least m neighbours — at k = m many of
// them exactly k, so a delete cascades. Locations are uniform, except that
// the last quarter of the vertices come in (m+1)-cliques huddled around one
// point, each tied to the rest by two edges from different members: a clique
// joins q's component through whichever tie a prefix holds first, so
// deleting that tie is a bridge of the join that leaves the community whole.
func hubGraph(seed int64, n, m int) *graph.Graph {
	rnd := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	var ends []graph.V // every edge's two ends: a draw from it is by degree
	cliques := n * 3 / 4
	for v := 0; v < n; v++ {
		if v >= cliques && (v-cliques)%(m+1) == 0 && v+m < n {
			c := geom.Point{X: rnd.Float64(), Y: rnd.Float64()}
			for i := 0; i <= m; i++ {
				w := graph.V(v + i)
				b.SetLoc(w, geom.Point{X: c.X + rnd.Float64()*0.02, Y: c.Y + rnd.Float64()*0.02})
				for u := graph.V(v); u < w; u++ {
					b.AddEdge(u, w)
				}
			}
			b.AddEdge(graph.V(v), graph.V(rnd.Intn(cliques)))
			b.AddEdge(graph.V(v+m), graph.V(rnd.Intn(cliques)))
			v += m
			continue
		}
		b.SetLoc(graph.V(v), geom.Point{X: rnd.Float64(), Y: rnd.Float64()})
		if v <= m {
			for u := 0; u < v; u++ {
				b.AddEdge(graph.V(u), graph.V(v))
				ends = append(ends, graph.V(u), graph.V(v))
			}
			continue
		}
		var picked []graph.V
		for len(picked) < m {
			if u := ends[rnd.Intn(len(ends))]; !slices.Contains(picked, u) {
				picked = append(picked, u)
			}
		}
		for _, u := range picked {
			b.AddEdge(u, graph.V(v))
			ends = append(ends, u, graph.V(v))
		}
	}
	return b.Build()
}

// prefixValues is the brute-force side of the kept state: for each position
// of verts, the smallest prefix length whose maximal k-core holds that
// vertex (coreAt) and whose connected k-core with q does (joinAt), each
// prefix peeled on its own — kcore.Peeler for the second.
func prefixValues(g *graph.Graph, verts []graph.V, q graph.V, k int) (coreAt, joinAt []int32) {
	n := len(verts)
	coreAt, joinAt = make([]int32, n), make([]int32, n)
	at := make([]int, g.NumVertices()) // position in verts + 1; 0 outside
	for i, v := range verts {
		at[v] = i + 1
	}
	peeler := kcore.NewPeeler(g)
	alive := make([]bool, n)
	deg := make([]int, n)
	for i := 1; i <= n; i++ {
		var queue []int
		for p := 0; p < i; p++ {
			alive[p], deg[p] = true, 0
			for _, u := range g.Neighbors(verts[p]) {
				if pu := at[u] - 1; pu >= 0 && pu < i {
					deg[p]++
				}
			}
			if deg[p] < k {
				alive[p] = false
				queue = append(queue, p)
			}
		}
		for len(queue) > 0 {
			p := queue[0]
			queue = queue[1:]
			for _, u := range g.Neighbors(verts[p]) {
				if pu := at[u] - 1; pu >= 0 && pu < i && alive[pu] {
					if deg[pu]--; deg[pu] < k {
						alive[pu] = false
						queue = append(queue, pu)
					}
				}
			}
		}
		for p := 0; p < i; p++ {
			if alive[p] && coreAt[p] == 0 {
				coreAt[p] = int32(i)
			}
		}
		for _, v := range peeler.KCoreWithin(verts[:i], q, k) {
			if joinAt[at[v]-1] == 0 {
				joinAt[at[v]-1] = int32(i)
			}
		}
	}
	return coreAt, joinAt
}

// keptStateFault checks a kept oracle's repair state against the brute
// force: coreAt and joinOf equal to prefixValues, and the join forest a
// forest of current induced edges rooted at q in which every member hangs
// off a neighbour with joinAt v = max(coreAt v, joinAt parent). It returns
// what is wrong, or "".
func keptStateFault(s *Searcher, g *graph.Graph, q graph.V, k int) string {
	e, vw := s.curEntry, s.curView
	o := &vw.oracle
	coreAt, joinAt := prefixValues(g, vw.verts, q, k)
	joinOf := make([]int32, len(o.coreAt))
	for p, v := range o.comm {
		joinOf[s.localOf[v]] = o.joinAt[p]
	}
	for p, v := range vw.verts {
		lv := s.localOf[v]
		if o.coreAt[lv] != coreAt[p] || joinOf[lv] != joinAt[p] {
			return fmt.Sprintf("member %d at rank %d: kept coreAt %d joinAt %d, brute force %d and %d", v, p, o.coreAt[lv], joinOf[lv], coreAt[p], joinAt[p])
		}
	}
	qLocal := s.localOf[q]
	n := int32(len(o.parent))
	for lv, p := range o.parent {
		if int32(lv) == qLocal {
			if p != -1 {
				return fmt.Sprintf("q has parent %d", p)
			}
			continue
		}
		if p < 0 || p >= n || !slices.Contains(e.adjLocal[e.adjOff[lv]:e.adjOff[lv+1]], p) {
			return fmt.Sprintf("local %d hangs off %d, no current neighbour", lv, p)
		}
		if joinOf[lv] != max(o.coreAt[lv], joinOf[p]) {
			return fmt.Sprintf("local %d: joinAt %d, but coreAt %d and its parent's joinAt %d", lv, joinOf[lv], o.coreAt[lv], joinOf[p])
		}
		x, steps := int32(lv), int32(0)
		for x != qLocal && steps <= n {
			x, steps = o.parent[x], steps+1
		}
		if x != qLocal {
			return fmt.Sprintf("local %d does not reach q up the forest", lv)
		}
	}
	return ""
}

func (a *repairPaths) add(b repairPaths) {
	a.certified += b.certified
	a.restored += b.restored
	a.outward += b.outward
	a.inward += b.inward
	a.fellBack += b.fellBack
}

// TestRepairPathsMatchFreshBuild is the property test of the oracle repair's
// exact local updates. Seeded random write scripts on small hub graphs — the
// hub sent to the far corner and back, members teleported across many
// ranks, small steps, deletes of join-forest edges (bridges of the join),
// deletes between low-degree members (cascades), any deletes and inserts —
// and after every write the first hot view, and now and then the others
// (whose records then hold several writes), are probed over their whole
// length. Each probed oracle must equal a fresh build bit for bit, and a kept
// one's repair state the brute force (keptStateFault). The searcher's path
// counters must show every way a repair goes: a certified delete, an
// empty-record restore, a replay outward and inward, and a replay that ran
// past its budget and went to the windows.
func TestRepairPathsMatchFreshBuild(t *testing.T) {
	scripts, steps := 10, 200
	if testing.Short() {
		scripts, steps = 5, 100
	}
	var total repairPaths
	for i := 0; i < scripts; i++ {
		seed := int64(31 + 17*i)
		m := 2 + i%3
		g := hubGraph(seed, 60+20*(i%4), m)
		total.add(runPathsScript(t, g, m, steps, seed))
	}
	t.Logf("paths: %+v", total)
	if total.certified == 0 || total.restored == 0 || total.outward == 0 || total.inward == 0 || total.fellBack == 0 {
		t.Fatalf("a repair path never ran: %+v", total)
	}
}

// runPathsScript is one script of TestRepairPathsMatchFreshBuild on g at k,
// returning the warm searcher's path counters.
func runPathsScript(t *testing.T, g *graph.Graph, k, steps int, seed int64) repairPaths {
	t.Helper()
	rnd := rand.New(rand.NewSource(seed))
	warm := NewSearcher(g)
	ctx := context.Background()
	hot := hotVertices(g, k, 4)
	if len(hot) < 2 {
		t.Fatalf("seed %d: %d eligible vertices", seed, len(hot))
	}
	n := g.NumVertices()
	hub, home, away := graph.V(0), g.Loc(0), false
	var forest, bridges [][2]graph.V // join-forest edges of hot[0]'s view at its last probe

	probe := func(step int, q graph.V) {
		t.Helper()
		warm.begin(ctx)
		cand, err := warm.candidates(q, k)
		fresh := NewSearcher(g)
		fresh.begin(ctx)
		fcand, ferr := fresh.candidates(q, k)
		if (err == nil) != (ferr == nil) {
			t.Fatalf("seed %d step %d q=%d: warm err %v, fresh err %v", seed, step, q, err, ferr)
		}
		if err != nil {
			if !errors.Is(err, ErrNoCommunity) {
				t.Fatal(err)
			}
			return
		}
		warm.curView.prefixFeasible(len(cand.verts))
		fresh.curView.prefixFeasible(len(fcand.verts))
		w, f := &warm.curView.oracle, &fresh.curView.oracle
		if !slices.Equal(warm.curView.verts, fresh.curView.verts) || !built(w) ||
			!slices.Equal(w.comm, f.comm) || !slices.Equal(w.joinAt, f.joinAt) || w.minFeasible != f.minFeasible {
			t.Fatalf("seed %d step %d q=%d: warm oracle (built %v, %d members, minFeasible %d) differs from a fresh build (%d members, minFeasible %d); paths %+v",
				seed, step, q, built(w), len(w.comm), w.minFeasible, len(f.comm), f.minFeasible, warm.oracleBuf.paths)
		}
		if !w.kept {
			return
		}
		if fault := keptStateFault(warm, g, q, k); fault != "" {
			t.Fatalf("seed %d step %d q=%d: kept state: %s; paths %+v", seed, step, q, fault, warm.oracleBuf.paths)
		}
		if q == hot[0] {
			// A forest edge whose child has no other neighbour of smaller
			// joinAt is a bridge of the join: deleting it is what the join
			// clause must turn down unless another way in stands.
			e := warm.curEntry
			joinOf := make([]int32, len(w.coreAt))
			for p, v := range w.comm {
				joinOf[warm.localOf[v]] = w.joinAt[p]
			}
			forest, bridges = forest[:0], bridges[:0]
			for lv, p := range w.parent {
				if p < 0 {
					continue
				}
				ed := [2]graph.V{e.members[lv], e.members[p]}
				forest = append(forest, ed)
				earlier := 0
				for _, u := range e.adjLocal[e.adjOff[lv]:e.adjOff[lv+1]] {
					if joinOf[u] < joinOf[lv] {
						earlier++
					}
				}
				if earlier == 1 {
					bridges = append(bridges, ed)
				}
			}
		}
	}
	remove := func(u, w graph.V) {
		if _, err := warm.Apply(graph.Write{Kind: graph.WriteRemoveEdge, V: u, W: w}); err != nil {
			t.Fatal(err)
		}
	}
	write := func() {
		switch r := rnd.Intn(20); {
		case r < 3: // the hub to the corner farthest from hot[0], or home
			p := home
			if !away {
				qp := g.Loc(hot[0])
				p = geom.Point{X: 0.999, Y: 0.999}
				if qp.X > 0.5 {
					p.X = 0.001
				}
				if qp.Y > 0.5 {
					p.Y = 0.001
				}
			}
			away = !away
			g.SetLoc(hub, p)
		case r < 6: // a teleport across many ranks
			if v := graph.V(rnd.Intn(n)); !slices.Contains(hot, v) && v != hub {
				g.SetLoc(v, geom.Point{X: rnd.Float64(), Y: rnd.Float64()})
			}
		case r < 8: // a small step
			if v := graph.V(rnd.Intn(n)); !slices.Contains(hot, v) && v != hub {
				p := g.Loc(v)
				g.SetLoc(v, geom.Point{X: p.X + rnd.NormFloat64()*0.02, Y: p.Y + rnd.NormFloat64()*0.02})
			}
		case r < 11: // a join-forest edge, a bridge of the join when there is one
			pool := forest
			if len(bridges) > 0 && rnd.Intn(3) > 0 {
				pool = bridges
			}
			if len(pool) > 0 {
				if ed := pool[rnd.Intn(len(pool))]; g.HasEdge(ed[0], ed[1]) {
					remove(ed[0], ed[1])
				}
			}
		case r < 14: // an edge at a low-degree member
			u := graph.V(rnd.Intn(n))
			if nb := g.Neighbors(u); len(nb) > 0 && len(nb) <= k+2 {
				remove(u, nb[rnd.Intn(len(nb))])
			}
		case r < 16: // any edge
			u := graph.V(rnd.Intn(n))
			if nb := g.Neighbors(u); len(nb) > 0 {
				remove(u, nb[rnd.Intn(len(nb))])
			}
		default:
			if _, err := warm.Apply(graph.Write{Kind: graph.WriteAddEdge, V: graph.V(rnd.Intn(n)), W: graph.V(rnd.Intn(n))}); err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, q := range hot {
		probe(-1, q)
	}
	for step := 0; step < steps; step++ {
		write()
		probe(step, hot[0])
		for _, q := range hot[1:] {
			if rnd.Intn(3) == 0 {
				probe(step, q)
			}
		}
	}
	return warm.oracleBuf.paths
}
