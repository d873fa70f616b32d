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
)

// stoodGraph plants nc cliques of size cs, joins some of them with single
// edges, and hangs loners vertices of degree at most one around them: a
// candidate set that edge ops can split, merge with another community, or
// reach out of towards vertices that stay outside every 3-structure.
func stoodGraph(seed int64, nc, cs, loners int) *graph.Graph {
	rnd := rand.New(rand.NewSource(seed))
	n := nc*cs + loners
	b := graph.NewBuilder(n)
	for c := 0; c < nc; c++ {
		cx, cy := rnd.Float64(), rnd.Float64()
		for i := 0; i < cs; i++ {
			v := graph.V(c*cs + i)
			b.SetLoc(v, geom.Point{X: cx + (rnd.Float64()-0.5)*0.05, Y: cy + (rnd.Float64()-0.5)*0.05})
			for j := 0; j < i; j++ {
				b.AddEdge(v, graph.V(c*cs+j))
			}
		}
		if c > 0 && rnd.Intn(3) > 0 {
			b.AddEdge(graph.V(c*cs+rnd.Intn(cs)), graph.V((c-1)*cs+rnd.Intn(cs)))
		}
	}
	for i := nc * cs; i < n; i++ {
		b.SetLoc(graph.V(i), geom.Point{X: rnd.Float64(), Y: rnd.Float64()})
		if rnd.Intn(2) == 0 {
			b.AddEdge(graph.V(i), graph.V(rnd.Intn(nc*cs)))
		}
	}
	return b.Build()
}

// TestStoreStoodMatchesFreshWalk is Stood's differential. On each structure
// metric a script applies seeded batches of check-ins and edge ops — members
// moving, edges inside X removed (splitting it) and added, edges from X to
// another community (merging) or to a loner (crossing the frontier), writes
// far from X — and plays the standing-query gate: the token is taken afresh
// only when Stood says the writes may have changed (q, k). Wherever Stood
// says they did not, X and a fresh searcher's answer to every registry
// algorithm on the new graph must equal the ones the token was taken with.
func TestStoreStoodMatchesFreshWalk(t *testing.T) {
	ctx := context.Background()
	for _, st := range []Structure{StructureKCore, StructureKTruss, StructureKClique} {
		t.Run(st.String(), func(t *testing.T) {
			const k, steps = 3, 150
			g := stoodGraph(7, 6, 6, 12)
			n := g.NumVertices()
			rnd := rand.New(rand.NewSource(int64(st) + 41))
			warm := NewSearcherWithStructure(g, st)
			q := graph.V(0)
			for v := range n {
				if g.Degree(graph.V(v)) > g.Degree(q) {
					q = graph.V(v)
				}
			}
			queries := []Query{{Algo: "appfast"}, {Algo: "appfast", EpsF: Float(0)}, {Algo: "appinc"}, {Algo: "appacc"},
				{Algo: "exact+"}, {Algo: "exact"}, {Algo: "theta", Theta: Float(0.02)}, {Algo: "theta", Theta: Float(0.5)}}
			for i := range queries {
				queries[i].Q, queries[i].K = q, k
			}
			type answer struct {
				res *Result
				err error
			}
			// state is what a fresh searcher finds on g as it stands: X as a
			// sorted set and every query's answer.
			state := func() ([]graph.V, []answer) {
				fresh := NewSearcherWithStructure(g, st)
				x := slices.Clone(fresh.communityOf(q, k))
				slices.Sort(x)
				var as []answer
				for _, query := range queries {
					res, err := fresh.Search(ctx, query)
					as = append(as, answer{res, err})
				}
				return x, as
			}
			tok := warm.Token(q, k)
			oldX, oldAnswers := state()
			var stood, changed, stoodEdges int
			for step := range steps {
				members := map[graph.V]bool{}
				for _, v := range warm.communityOf(q, k) {
					members[v] = true
				}
				pick := func(inX bool) graph.V {
					for range 4 * n {
						if v := graph.V(rnd.Intn(n)); members[v] == inX {
							return v
						}
					}
					return graph.V(rnd.Intn(n))
				}
				var ws []graph.Write
				for range 1 + rnd.Intn(2) {
					var w graph.Write
					switch r := rnd.Intn(10); {
					case r < 2: // a member moves a little
						v := pick(true)
						p := g.Loc(v)
						w = graph.Write{Kind: graph.WriteCheckin, V: v, Loc: geom.Point{X: p.X + rnd.NormFloat64()*0.01, Y: p.Y + rnd.NormFloat64()*0.01}}
					case r < 5: // a vertex outside X teleports
						w = graph.Write{Kind: graph.WriteCheckin, V: pick(false), Loc: geom.Point{X: rnd.Float64(), Y: rnd.Float64()}}
					case r < 8: // an edge at a member goes: inside X it may split it
						u := pick(true)
						if nb := g.Neighbors(u); len(nb) > 0 {
							w = graph.Write{Kind: graph.WriteRemoveEdge, V: u, W: nb[rnd.Intn(len(nb))]}
						}
					case r < 9: // an edge from X outwards: merging, or to a loner
						w = graph.Write{Kind: graph.WriteAddEdge, V: pick(true), W: pick(false)}
					default: // an edge anywhere
						w = graph.Write{Kind: graph.WriteAddEdge, V: graph.V(rnd.Intn(n)), W: graph.V(rnd.Intn(n))}
					}
					if w.Kind == 0 || w.Kind != graph.WriteCheckin && w.V == w.W {
						continue
					}
					apply := warm.Apply
					if st == StructureKTruss && w.Kind != graph.WriteCheckin {
						apply = g.Apply // no truss maintenance: the searcher is replaced below
					}
					ok, err := apply(w)
					if err != nil {
						t.Fatal(err)
					}
					if ok {
						ws = append(ws, w)
					}
				}
				label := fmt.Sprintf("step %d, writes %v", step, ws)
				edgeOp := slices.ContainsFunc(ws, func(w graph.Write) bool { return w.Kind != graph.WriteCheckin })
				if st == StructureKTruss && edgeOp {
					// The old store saw no truss maintenance: its entries
					// must not survive into the new searcher.
					stale := warm
					warm = NewSearcherWithStructure(g, st)
					if stale.Stood(q, k, tok, ws) {
						t.Fatalf("%s: a k-truss entry stood across an edge op", label)
					}
				}
				if rnd.Intn(2) == 0 {
					// A query between the writes and the gate, as a server's
					// are: it may bring the entry forward, or walk X afresh
					// and store it where the writes dropped the old one.
					if _, err := warm.Search(ctx, queries[rnd.Intn(len(queries))]); err != nil && !errors.Is(err, ErrNoCommunity) {
						t.Fatal(err)
					}
				}
				if !warm.Stood(q, k, tok, ws) {
					changed++
					tok = warm.Token(q, k)
					oldX, oldAnswers = state()
					continue
				}
				stood++
				if edgeOp {
					stoodEdges++
				}
				newX, newAnswers := state()
				if !slices.Equal(newX, oldX) {
					t.Fatalf("%s: Stood, but X went from %v to %v", label, oldX, newX)
				}
				for i, query := range queries {
					was, is := oldAnswers[i], newAnswers[i]
					if (was.err == nil) != (is.err == nil) || was.err != nil && !(errors.Is(was.err, ErrNoCommunity) && errors.Is(is.err, ErrNoCommunity)) {
						t.Fatalf("%s: Stood, but %s went from error %v to %v", label, query.Algo, was.err, is.err)
					}
					if was.err == nil && (!slices.Equal(was.res.Members, is.res.Members) || was.res.MCC != is.res.MCC || was.res.Delta != is.res.Delta) {
						t.Fatalf("%s: Stood, but %s went from %v (MCC %+v, δ %v) to %v (MCC %+v, δ %v)", label, query.Algo,
							was.res.Members, was.res.MCC, was.res.Delta, is.res.Members, is.res.MCC, is.res.Delta)
					}
				}
			}
			t.Logf("%d steps stood (%d with an edge op), %d may have changed", stood, stoodEdges, changed)
			if stood < steps/10 || changed < steps/10 {
				t.Fatalf("%d steps stood and %d did not: the script exercises too little", stood, changed)
			}
			// A k-core entry survives the edge ops that leave X standing
			// (revalidate); k-truss and k-clique entries drop on any.
			if st == StructureKCore && stoodEdges == 0 {
				t.Fatal("no batch with an edge op stood")
			}
		})
	}
}

// TestStoreTokenBehindStoreDoesNotWalk: a worker pinned to an older snapshot
// asks for the token of (q, k) after a query on a newer one, past an edge
// op inside the community, stored the entry at the later topology. The
// store will not trade that entry for a walk behind it, so the token is a
// fresh one, taken without walking the community (whose walk and induced
// CSR allocate |X|-sized arrays), and Stood matches it on neither snapshot.
func TestStoreTokenBehindStoreDoesNotWalk(t *testing.T) {
	g, q, _ := storeFixture(t)
	ss := &storeSnapshots{writer: NewSearcher(g)}
	ss.publish()
	x := NewSearcher(g).communityOf(q, 4)
	var u, w graph.V = -1, -1
	for _, a := range x[1:] {
		if b := x[len(x)-1]; a != b && !g.HasEdge(a, b) {
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
	newer := ss.pool.GetFor(ss.bases[1])
	if _, err := newer.AppFast(q, 4, 0.5); err != nil {
		t.Fatal(err)
	}
	if e := ss.pool.base.Load().store.lookup(q, 4).cur.Load(); e.topo.Load() != ss.bases[1].g.TopoEpoch() {
		t.Fatal("fixture: the newer query did not store the entry at its topology")
	}
	old := ss.pool.GetFor(ss.bases[0])
	var tok Token
	if allocs := testing.AllocsPerRun(20, func() { tok = old.Token(q, 4) }); allocs > 2 {
		t.Fatalf("Token behind the store allocated %v times per call (|X| = %d): it walked the community", allocs, len(x))
	}
	if tok == (Token{}) {
		t.Fatal("Token behind the store returned the empty community's token")
	}
	if old.Stood(q, 4, tok, nil) || newer.Stood(q, 4, tok, nil) {
		t.Fatal("a token taken behind the store stood")
	}
}
