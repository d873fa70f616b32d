package router

import (
	"context"
	"fmt"
	"sort"

	"sacsearch/client"
	"sacsearch/internal/core"
	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
	"sacsearch/internal/httpapi"
	"sacsearch/internal/telemetry"
	"sacsearch/internal/wire"
)

// The slow path: when no single shard can certify a query, the router
// gathers every vertex the answer could touch — each with its owner's
// authoritative location and full adjacency — builds the induced subgraph,
// and runs the stock algorithm itself.
//
// Why this is exact (k-core algorithms): every registered k-core algorithm
// is a pure function of X = the connected component of q in the global
// k-core. The gathered set U is a superset of X (induction along any path
// inside X: a member's same-shard X-neighbors share its optimistic
// component; its cross-shard X-neighbors appear in the frontier and are
// seeded at their owners, where they survive the optimistic peel because
// they are in the global k-core). Every U-internal edge is covered because
// owners report full adjacency. The k-core of induced(U) then equals the
// global k-core restricted to U in both directions: X survives inside U
// (all of X and its edges are present), and any k-core of induced(U) is a
// min-degree-k subgraph of the full graph, hence inside the global k-core.
// So the component of q is X exactly, locations match the owners', and the
// assembled Search returns the single-engine answer (members, circle,
// radius; work counters can differ).
//
// θ-SAC instead gathers O(loc(q), θ) by disk: every shard reports its owned
// vertices inside the circle under the same closed-disk predicate the
// algorithm itself uses, so the assembled BFS component and feasibility
// peel are the single-engine ones verbatim.

// routeAssembled gathers the cross-shard k-core closure around q and runs
// the query locally. owner is q's shard (already consulted and uncertified).
// It also returns the gathered vertex ids — a superset of the candidate set
// X, which the standing-query layer uses as its check-in watch set.
func (rt *Router) routeAssembled(ctx context.Context, cq core.Query, owner int) (*wire.Result, []int64, error) {
	ctx, aspan := telemetry.StartSpan(ctx, "assemble")
	defer aspan.End()
	collected := make(map[int64]client.ShardVertex)
	seeded := map[int64]bool{int64(cq.Q): true}
	pending := make([][]int64, rt.m.Shards)
	pending[owner] = []int64{int64(cq.Q)}
	rounds := 0
	for {
		var shards []int
		for s := range pending {
			if len(pending[s]) > 0 {
				shards = append(shards, s)
			}
		}
		if len(shards) == 0 {
			break
		}
		rounds++
		rt.expandRounds.Inc()
		expansions := make([]*client.ShardExpansion, len(shards))
		errs := make([]error, len(shards))
		fanOut(len(shards), func(i int) {
			s := shards[i]
			lctx, span := rt.leg(ctx, "expand", s)
			defer span.End()
			expansions[i], errs[i] = rt.sets[s].ShardExpand(lctx, cq.K, pending[s])
		})
		pending = make([][]int64, rt.m.Shards)
		for i, exp := range expansions {
			if errs[i] != nil {
				return nil, nil, &legFailure{shards[i], errs[i]}
			}
			for _, m := range exp.Members {
				if _, ok := collected[m.V]; !ok {
					collected[m.V] = m
				}
			}
			for _, f := range exp.Frontier {
				if seeded[f] {
					continue
				}
				if _, ok := collected[f]; ok {
					continue
				}
				if f < 0 || f >= int64(rt.m.N) {
					return nil, nil, &legFailure{shards[i], fmt.Errorf("frontier names vertex %d, outside the shard map", f)}
				}
				seeded[f] = true
				o := rt.m.OwnerOf(graph.V(f))
				pending[o] = append(pending[o], f)
			}
		}
	}
	aspan.SetAttr("rounds", rounds)
	aspan.SetAttr("gathered", len(collected))
	if _, ok := collected[int64(cq.Q)]; !ok {
		// q was alive when its shard declined to certify but dead by the
		// time the closure ran (concurrent topology churn): at the closure's
		// snapshot q is outside the global k-core.
		return nil, nil, core.ErrNoCommunity
	}
	gathered := make([]int64, 0, len(collected))
	for id := range collected {
		gathered = append(gathered, id)
	}
	resp, err := rt.runLocal(ctx, cq, collected)
	if err != nil {
		return nil, nil, err
	}
	return resp, gathered, nil
}

// routeTheta gathers the θ-SAC catchment disk across all shards and runs
// the query locally. Ownership is spatial only at partition time — vertices
// drift arbitrarily afterwards — so every shard is asked; each reports its
// owned vertices currently inside the disk.
func (rt *Router) routeTheta(ctx context.Context, cq core.Query) (*wire.Result, error) {
	ctx, aspan := telemetry.StartSpan(ctx, "assemble")
	defer aspan.End()
	owner := rt.m.OwnerOf(cq.Q)
	lctx, vspan := rt.leg(ctx, "vertex", owner)
	loc, err := rt.sets[owner].Vertex(lctx, int64(cq.Q))
	vspan.End()
	if err != nil {
		return nil, &legFailure{owner, err}
	}
	theta := *cq.Theta // required parameter; validated before routing
	gathered := make([][]client.ShardVertex, rt.m.Shards)
	errs := make([]error, rt.m.Shards)
	fanOut(rt.m.Shards, func(s int) {
		lctx, span := rt.leg(ctx, "range", s)
		defer span.End()
		gathered[s], errs[s] = rt.sets[s].ShardRange(lctx, loc.X, loc.Y, theta)
	})
	collected := make(map[int64]client.ShardVertex)
	for s, vs := range gathered {
		if errs[s] != nil {
			return nil, &legFailure{s, errs[s]}
		}
		for _, v := range vs {
			collected[v.V] = v
		}
	}
	aspan.SetAttr("gathered", len(collected))
	if _, ok := collected[int64(cq.Q)]; !ok {
		// q moved off the fetched location between the two legs; at the
		// gather's view it is outside its own disk, so no community.
		return nil, core.ErrNoCommunity
	}
	return rt.runLocal(ctx, cq, collected)
}

// runLocal builds the induced subgraph over the gathered vertices and runs
// the stock Search on it. Global ids map to local ranks monotonically
// (ascending), so every id-ordered traversal inside the algorithms visits
// vertices in the same relative order as a single engine would and the
// answer remaps back unchanged.
func (rt *Router) runLocal(ctx context.Context, cq core.Query, vertices map[int64]client.ShardVertex) (*wire.Result, error) {
	ctx, span := telemetry.StartSpan(ctx, "merge")
	defer span.End()
	span.SetAttr("vertices", len(vertices))
	ids := make([]int64, 0, len(vertices))
	for id := range vertices {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	rank := make(map[int64]graph.V, len(ids))
	for i, id := range ids {
		rank[id] = graph.V(i)
	}
	b := graph.NewBuilder(len(ids))
	for i, id := range ids {
		v := vertices[id]
		b.SetLoc(graph.V(i), geom.Point{X: v.X, Y: v.Y})
		for _, nb := range v.Adj {
			// Both endpoints report every shared edge; adding it from the
			// lower endpoint only keeps it single.
			if j, ok := rank[nb]; ok && graph.V(i) < j {
				b.AddEdge(graph.V(i), j)
			}
		}
	}
	g := b.Build()
	searcher := core.NewSearcher(g)
	searcher.SetParallelism(rt.cfg.QueryParallelism)
	lq := cq
	lq.Q = rank[int64(cq.Q)]
	res, err := searcher.Search(ctx, lq)
	if err != nil {
		return nil, err
	}
	// Remap the answer back to global ids, as the shards sent them.
	spec, _ := core.LookupAlgo(cq.Algo)
	out := httpapi.WireResult(spec.Name, res)
	out.Q = int64(cq.Q)
	for i, m := range res.Members {
		out.Members[i] = ids[m]
	}
	return out, nil
}
