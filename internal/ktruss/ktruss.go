// Package ktruss implements the k-truss substrate. The paper notes (Sections
// 1 and 3) that the minimum-degree structure cohesiveness of SAC search "can
// be easily replaced by other metrics like k-truss"; this package provides
// that replacement: a truss decomposition of the whole graph and a restricted
// checker that answers "does G[S] contain a connected k-truss with q?".
//
// A k-truss is a subgraph in which every edge participates in at least k-2
// triangles of the subgraph. We use plain vertex connectivity for the
// "connected" requirement (Huang et al. [19] use triangle connectivity; for
// the community shapes exercised here the two coincide on all fixtures, and
// vertex connectivity matches the k-core variant's semantics).
package ktruss

import (
	"sacsearch/internal/graph"
)

// edgeKey packs an undirected edge (u < v) into one comparable value.
func edgeKey(u, v graph.V) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// Decompose returns the truss number of every undirected edge of g, as a map
// from packed edge key to truss number. Edges in no triangle have truss 2.
func Decompose(g *graph.Graph) map[uint64]int32 {
	type edge struct {
		u, v graph.V
	}
	var edges []edge
	n := g.NumVertices()
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(graph.V(u)) {
			if graph.V(u) < v {
				edges = append(edges, edge{graph.V(u), v})
			}
		}
	}
	sup := make(map[uint64]int32, len(edges))
	alive := make(map[uint64]bool, len(edges))
	for _, e := range edges {
		s := int32(countCommon(g, e.u, e.v, nil))
		sup[edgeKey(e.u, e.v)] = s
		alive[edgeKey(e.u, e.v)] = true
	}
	truss := make(map[uint64]int32, len(edges))

	// Peel edges in increasing support order. A simple re-sorted loop is
	// O(m² log m) worst case but the graphs fed to the truss extension are
	// community sized; the whole-graph decomposition is only used on the
	// moderate fixtures and datasets.
	remaining := make([]edge, len(edges))
	copy(remaining, edges)
	k := int32(2)
	for len(remaining) > 0 {
		// Remove all edges with support <= k-2, cascading.
		progress := true
		for progress {
			progress = false
			keep := remaining[:0]
			for _, e := range remaining {
				key := edgeKey(e.u, e.v)
				if sup[key] <= k-2 {
					truss[key] = k
					alive[key] = false
					progress = true
					// Decrement support of the other two edges of each
					// triangle through this edge.
					forEachCommon(g, e.u, e.v, func(w graph.V) {
						k1 := edgeKey(e.u, w)
						k2 := edgeKey(e.v, w)
						if alive[k1] && alive[k2] {
							sup[k1]--
							sup[k2]--
						}
					})
				} else {
					keep = append(keep, e)
				}
			}
			remaining = keep
		}
		k++
	}
	return truss
}

// countCommon returns |nb(u) ∩ nb(v)|, optionally restricted to the marker.
func countCommon(g *graph.Graph, u, v graph.V, within *graph.Marker) int {
	a := g.Neighbors(u)
	b := g.Neighbors(v)
	i, j, c := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			if within == nil || within.Has(a[i]) {
				c++
			}
			i++
			j++
		}
	}
	return c
}

// forEachCommon invokes fn for every common neighbor of u and v.
func forEachCommon(g *graph.Graph, u, v graph.V, fn func(w graph.V)) {
	a := g.Neighbors(u)
	b := g.Neighbors(v)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			fn(a[i])
			i++
			j++
		}
	}
}

// CommunityOf returns the vertices of the connected k-truss containing q
// (edges with truss ≥ k, vertices reached from q through them), or nil when
// q is incident to no such edge. truss must come from Decompose(g). For k<=2
// every edge qualifies, so the result is q's connected component (or nil if
// q is isolated).
func CommunityOf(g *graph.Graph, truss map[uint64]int32, q graph.V, k int) []graph.V {
	hasEdge := false
	for _, u := range g.Neighbors(q) {
		if truss[edgeKey(q, u)] >= int32(k) {
			hasEdge = true
			break
		}
	}
	if !hasEdge {
		return nil
	}
	n := g.NumVertices()
	visited := graph.NewMarker(n)
	visited.Mark(q)
	out := []graph.V{q}
	for head := 0; head < len(out); head++ {
		v := out[head]
		for _, u := range g.Neighbors(v) {
			if !visited.Has(u) && truss[edgeKey(v, u)] >= int32(k) {
				visited.Mark(u)
				out = append(out, u)
			}
		}
	}
	return out
}

// Checker answers restricted truss feasibility queries, mirroring
// kcore.Peeler: given candidate set S and query q, return the connected
// k-truss of G[S] containing q, or nil. It holds scratch space; not safe for
// concurrent use.
type Checker struct {
	g       *graph.Graph
	inS     *graph.Marker
	visited *graph.Marker
	sup     map[uint64]int32
	alive   map[uint64]bool
	queue   []uint64
	comp    []graph.V
}

// NewChecker creates a Checker for g.
func NewChecker(g *graph.Graph) *Checker {
	n := g.NumVertices()
	return &Checker{
		g:       g,
		inS:     graph.NewMarker(n),
		visited: graph.NewMarker(n),
		sup:     make(map[uint64]int32),
		alive:   make(map[uint64]bool),
	}
}

// SetGraph rebinds the Checker to another graph with the same vertex count
// (snapshot serving hands workers freshly published clones). A different
// vertex count panics.
func (c *Checker) SetGraph(g *graph.Graph) {
	if g.NumVertices() != c.inS.Len() {
		panic("ktruss: SetGraph with a different vertex count")
	}
	c.g = g
}

// KTrussWithin returns the vertices of the connected k-truss of G[S]
// containing q, or nil. The returned slice is owned by the Checker until the
// next call.
func (c *Checker) KTrussWithin(S []graph.V, q graph.V, k int) []graph.V {
	g := c.g
	c.inS.Reset()
	qSeen := false
	for _, v := range S {
		c.inS.Mark(v)
		if v == q {
			qSeen = true
		}
	}
	if !qSeen {
		return nil
	}
	// Support of every edge of G[S].
	clear(c.sup)
	clear(c.alive)
	c.queue = c.queue[:0]
	for _, u := range S {
		for _, v := range g.Neighbors(u) {
			if u < v && c.inS.Has(v) {
				key := edgeKey(u, v)
				s := int32(countCommon(g, u, v, c.inS))
				c.sup[key] = s
				c.alive[key] = true
				if s < int32(k)-2 {
					c.queue = append(c.queue, key)
				}
			}
		}
	}
	// Peel edges with support < k-2.
	for head := 0; head < len(c.queue); head++ {
		key := c.queue[head]
		if !c.alive[key] {
			continue
		}
		c.alive[key] = false
		u := graph.V(key >> 32)
		v := graph.V(key & 0xffffffff)
		forEachCommon(g, u, v, func(w graph.V) {
			if !c.inS.Has(w) {
				return
			}
			k1 := edgeKey(u, w)
			k2 := edgeKey(v, w)
			if c.alive[k1] && c.alive[k2] {
				c.sup[k1]--
				if c.sup[k1] < int32(k)-2 {
					c.queue = append(c.queue, k1)
				}
				c.sup[k2]--
				if c.sup[k2] < int32(k)-2 {
					c.queue = append(c.queue, k2)
				}
			}
		})
	}
	// BFS from q over surviving edges.
	hasEdge := false
	for _, u := range g.Neighbors(q) {
		if c.inS.Has(u) && c.alive[edgeKey(q, u)] {
			hasEdge = true
			break
		}
	}
	if !hasEdge {
		return nil
	}
	c.visited.Reset()
	c.visited.Mark(q)
	c.comp = append(c.comp[:0], q)
	for head := 0; head < len(c.comp); head++ {
		v := c.comp[head]
		for _, u := range g.Neighbors(v) {
			if c.inS.Has(u) && !c.visited.Has(u) && c.alive[edgeKey(v, u)] {
				c.visited.Mark(u)
				c.comp = append(c.comp, u)
			}
		}
	}
	return c.comp
}
