// Package community implements the community-retrieval baselines that
// Section 5.2.2 compares SAC search against:
//
//   - Global — Sozio & Gionis [29]: the connected k-core containing the
//     query vertex, computed over the whole graph.
//   - Local — Cui et al. [7]: local expansion from the query vertex until a
//     subgraph with minimum degree ≥ k emerges; returns much smaller
//     communities than Global without touching the whole graph.
//   - GeoModu — Chen et al. [4]: community detection by modularity
//     maximization over geo-weighted edges (w = 1/d^µ), implemented with the
//     Louvain method; the community containing the query vertex is returned.
package community

import (
	"container/heap"

	"sacsearch/internal/graph"
	"sacsearch/internal/kcore"
)

// Searcher runs the Global and Local community-search baselines against one
// graph, sharing a core decomposition and scratch space across queries. Not
// safe for concurrent use.
type Searcher struct {
	g      *graph.Graph
	cores  []int32
	peeler *kcore.Peeler
	inC    *graph.Marker
	conn   []int32 // scratch: connections into the growing community
}

// NewSearcher prepares the baselines for g (O(m) core decomposition).
func NewSearcher(g *graph.Graph) *Searcher {
	return &Searcher{
		g:      g,
		cores:  kcore.Decompose(g),
		peeler: kcore.NewPeeler(g),
		inC:    graph.NewMarker(g.NumVertices()),
		conn:   make([]int32, g.NumVertices()),
	}
}

// Global returns the connected k-core containing q (the community of [29]),
// or nil when q's core number is below k.
func (s *Searcher) Global(q graph.V, k int) []graph.V {
	return kcore.CommunityOf(s.g, s.cores, q, k)
}

// expandItem is a frontier vertex ordered by how many edges it has into the
// growing community (more first; ties by smaller id for determinism).
type expandItem struct {
	v    graph.V
	conn int32
}

type expandHeap []expandItem

func (h expandHeap) Len() int { return len(h) }
func (h expandHeap) Less(i, j int) bool {
	if h[i].conn != h[j].conn {
		return h[i].conn > h[j].conn
	}
	return h[i].v < h[j].v
}
func (h expandHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *expandHeap) Push(x any)   { *h = append(*h, x.(expandItem)) }
func (h *expandHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Local returns a community with minimum degree ≥ k found by greedy local
// expansion from q (the strategy of [7]): repeatedly add the frontier vertex
// best connected to the current set, and return the first k-core containing
// q that emerges inside the set. Returns nil when no community exists in
// q's connected component.
func (s *Searcher) Local(q graph.V, k int) []graph.V {
	if int(s.cores[q]) < k {
		return nil // q is in no k-core at all; expansion cannot succeed
	}
	g := s.g
	s.inC.Reset()
	for i := range s.conn {
		s.conn[i] = 0
	}
	members := []graph.V{q}
	s.inC.Mark(q)

	var frontier expandHeap
	push := func(v graph.V) {
		for _, u := range g.Neighbors(v) {
			if s.inC.Has(u) {
				continue
			}
			// Only vertices that can belong to a k-core are useful.
			if int(s.cores[u]) < k {
				continue
			}
			s.conn[u]++
			heap.Push(&frontier, expandItem{u, s.conn[u]})
		}
	}
	push(q)
	qDeg := 0
	for len(frontier) > 0 {
		it := heap.Pop(&frontier).(expandItem)
		if s.inC.Has(it.v) || it.conn != s.conn[it.v] {
			continue // stale heap entry
		}
		s.inC.Mark(it.v)
		members = append(members, it.v)
		if g.HasEdge(q, it.v) {
			qDeg++
		}
		push(it.v)
		// Try to finish once the cheap necessary condition holds.
		if qDeg >= k {
			if c := s.peeler.KCoreWithin(members, q, k); c != nil {
				out := make([]graph.V, len(c))
				copy(out, c)
				return out
			}
		}
	}
	// Frontier exhausted: the whole (core-filtered) component is in members.
	if c := s.peeler.KCoreWithin(members, q, k); c != nil {
		out := make([]graph.V, len(c))
		copy(out, c)
		return out
	}
	return nil
}

// AvgInternalDegree returns the average degree of the given vertices within
// the subgraph they induce (used for the structure-cohesiveness comparison
// of Section 5.2.2).
func AvgInternalDegree(g *graph.Graph, members []graph.V) float64 {
	if len(members) == 0 {
		return 0
	}
	in := graph.NewMarker(g.NumVertices())
	in.MarkAll(members)
	total := 0
	for _, v := range members {
		for _, u := range g.Neighbors(v) {
			if in.Has(u) {
				total++
			}
		}
	}
	return float64(total) / float64(len(members))
}
