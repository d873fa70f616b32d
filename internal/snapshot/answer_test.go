package snapshot

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"sacsearch/internal/core"
	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
	"sacsearch/internal/wire"
)

// cliqueGraph plants nc cliques of size cs, joins some of them with single
// edges, and hangs loners vertices of degree at most one around them: a
// candidate set that edge ops can split, merge with another community, or
// reach out of towards vertices that stay outside every 3-core.
func cliqueGraph(seed int64, nc, cs, loners int) *graph.Graph {
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

// sameWork reports whether two answers' stats agree but for elapsedMicros,
// and for the exact scans' work counters, which depend on how the strips of
// a scan on two or more processors interleave.
func sameWork(a, b wire.Stats) bool {
	a.ElapsedMicros, b.ElapsedMicros = 0, 0
	if a.Algorithm == "exact" || a.Algorithm == "exact+" {
		a.FeasibilityChecks, b.FeasibilityChecks = 0, 0
	}
	return a == b
}

// TestStoreAnswersMatchFreshSearch: seeded batches of check-ins and edge
// ops — members moving, vertices outside X teleporting, edges inside X
// removed and added, edges across its frontier — each published by the
// engine. After each batch every registry algorithm is asked twice through
// Snap.Answer: both answers equal a fresh searcher's on that snapshot, work
// counters included (sameWork), and the second is a hit, but θ-SAC's, which
// keeps no answer. Each round asks first the key q's view version finished
// last, so an answer the store carried across a write (no member moved, no
// edge between two members changed) must be among them, or the test shows
// nothing.
func TestStoreAnswersMatchFreshSearch(t *testing.T) {
	const k, steps = 3, 80
	g := cliqueGraph(7, 6, 6, 12)
	n := g.NumVertices()
	eng := New(g.Clone(), Options{})
	defer eng.Close()
	ctx := context.Background()
	rnd := rand.New(rand.NewSource(41))
	q := graph.V(0)
	for v := range graph.V(n) {
		if g.Degree(v) > g.Degree(q) {
			q = v
		}
	}
	queries := []core.Query{{Algo: "appfast"}, {Algo: "appfast", EpsF: core.Float(0)}, {Algo: "appinc"}, {Algo: "appacc"},
		{Algo: "exact+"}, {Algo: "exact"}, {Algo: "theta", Theta: core.Float(0.02)}, {Algo: "theta", Theta: core.Float(0.5)}}
	for i := range queries {
		queries[i].Q, queries[i].K = q, k
	}
	carried, hits := 0, 0
	for step := range steps {
		snap := eng.Current()
		g := snap.Graph()
		members := map[graph.V]bool{}
		x, _ := core.NewSearcher(g).CandidateClosure(q, k)
		for _, v := range x {
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
			ws = append(ws, w)
		}
		if len(ws) == 0 {
			continue
		}
		if _, err := eng.Apply(ctx, ws); err != nil {
			t.Fatal(err)
		}
		snap = eng.Current()
		fresh := core.NewSearcher(snap.Graph())
		for _, query := range queries {
			label := fmt.Sprintf("step %d, writes %v, %s%v", step, ws, query.Algo, query)
			want, wantErr := fresh.Search(ctx, query)
			for ask := range 2 {
				r, err := snap.Answer(ctx, query, false)
				if (err == nil) != (wantErr == nil) || err != nil && !(errors.Is(err, core.ErrNoCommunity) && errors.Is(wantErr, core.ErrNoCommunity)) {
					t.Fatalf("%s, ask %d: error %v, a fresh searcher's %v", label, ask, err, wantErr)
				}
				if err != nil {
					continue
				}
				if got := r.Result; !slices.Equal(got.Members, graph.IDs(want.Members)) || got.MCC.R != want.MCC.R ||
					got.MCC.X != want.MCC.C.X || got.MCC.Y != want.MCC.C.Y || got.Delta != want.Delta || !sameWork(got.Stats, WireResult(r.Key.Algo, want).Stats) {
					t.Fatalf("%s, ask %d: %v (MCC %+v, δ %v), a fresh searcher %v (MCC %+v, δ %v)",
						label, ask, got.Members, got.MCC, got.Delta, want.Members, want.MCC, want.Delta)
				}
				if ask == 0 && r.Stats.AnswerHits > 0 {
					carried++
				}
				if ask == 1 {
					if r.Hit != (query.Algo != "theta") {
						t.Fatalf("%s: the second ask was a hit: %v", label, r.Hit)
					}
					if r.Hit {
						hits++
					}
				}
			}
		}
		slices.Reverse(queries) // the key finished last on q's version is asked first
	}
	t.Logf("%d answers carried across a write, %d second asks hit", carried, hits)
	if carried == 0 {
		t.Fatal("no answer was carried across a write")
	}
}

// TestAnswerMissIsOneSighting: a key asked once through the door is one
// sighting of its vertex, as on a searcher: a stream of distinct query
// vertices in one community leaves only probationary views published, and
// a vertex asked again earns a protected one.
func TestAnswerMissIsOneSighting(t *testing.T) {
	g := cliqueGraph(3, 2, 40, 0)
	eng := New(g, Options{})
	defer eng.Close()
	snap := eng.Current()
	ctx := context.Background()
	const k = 3
	for v := range graph.V(30) {
		if _, err := snap.Answer(ctx, core.Query{Algo: "appfast", Q: v, K: k}, false); err != nil {
			t.Fatal(err)
		}
	}
	if views, _ := core.PublishedViews(snap.base, 0, k); views > 4 {
		t.Fatalf("30 first sightings left %d views published, over the 4 probationary ones", views)
	}
	for range 2 {
		if _, err := snap.Answer(ctx, core.Query{Algo: "appinc", Q: 29, K: k}, false); err != nil {
			t.Fatal(err)
		}
	}
	for v := range graph.V(4) {
		if _, err := snap.Answer(ctx, core.Query{Algo: "appfast", Q: 30 + v, K: k}, false); err != nil {
			t.Fatal(err)
		}
	}
	if r, err := snap.Answer(ctx, core.Query{Algo: "appinc", Q: 29, K: k}, false); err != nil || !r.Hit {
		t.Fatalf("a vertex seen three times lost its view to first sightings: %v, hit %v", err, r.Hit)
	}
}

// BenchmarkSnapAnswerHit is the door's hit path: two goroutines ask 16 hot
// AppFast keys of one community on one snapshot, each key asked twice
// before the timer, so every timed ask is a hit — the store's index, the
// entry and view pins, the view list's lock and the version's answer.
func BenchmarkSnapAnswerHit(b *testing.B) {
	eng := New(cliqueGraph(1, 1, 64, 0), Options{})
	defer eng.Close()
	snap := eng.Current()
	ctx := context.Background()
	qs := make([]core.Query, 16)
	for i := range qs {
		qs[i] = core.Query{Algo: "appfast", Q: graph.V(i), K: 3}
		for range 2 {
			if _, err := snap.Answer(ctx, qs[i], false); err != nil {
				b.Fatal(err)
			}
		}
	}
	var misses atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < b.N; i += 2 {
				if r, err := snap.Answer(ctx, qs[i*7%len(qs)], false); err != nil || !r.Hit {
					misses.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := misses.Load(); n > 0 {
		b.Fatalf("%d of %d asks were not hits", n, b.N)
	}
}
