package graph

import (
	"fmt"
	"slices"
)

// Dynamic topology. A graph's adjacency lives in pages (graph.go), and a
// page is never written once built. AddEdge and RemoveEdge therefore give
// each endpoint's page a new copy with the changed row — O(page) per page,
// one copy when both endpoints share a page — and store it in this graph's
// own table, leaving the old page intact for every clone and snapshot still
// holding it. Neighbors stays allocation-free and safe for concurrent
// readers between mutations.
//
// Mutating topology stales every topology-derived structure built from the
// graph — core decompositions, candidate caches, spatial candidate indexes.
// Consumers detect it by comparing TopoEpoch (or Seq) and learn which edges
// changed from the mutation journal (journal.go); core numbers are kept
// current incrementally by kcore.Maintainer (or a Searcher's Apply, which
// wraps one).

// TopoEpoch returns the topology version: it changes whenever AddEdge or
// RemoveEdge mutates the edge set. Consumers that cache topology-derived
// data (community memberships, induced subgraphs) compare epochs to decide
// whether the cache is still valid.
func (g *Graph) TopoEpoch() uint64 { return g.topoEpoch }

// AddEdge inserts the undirected edge {u, v}. It reports whether the edge
// set changed: self-loops and already-present edges return false. Vertices
// out of range panic, matching Builder.AddEdge. Not safe for concurrent use
// with readers.
func (g *Graph) AddEdge(u, v V) bool {
	g.mustBeMutable()
	if u == v {
		return false
	}
	n := g.NumVertices()
	if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, n))
	}
	if g.HasEdge(u, v) {
		return false
	}
	g.setArcs(u, v, true)
	g.m++
	g.topoEpoch++
	g.record(Write{Kind: WriteAddEdge, V: u, W: v})
	return true
}

// RemoveEdge deletes the undirected edge {u, v}. It reports whether the edge
// existed. Vertices out of range panic. Not safe for concurrent use with
// readers.
func (g *Graph) RemoveEdge(u, v V) bool {
	g.mustBeMutable()
	if u == v {
		return false
	}
	n := g.NumVertices()
	if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, n))
	}
	if !g.HasEdge(u, v) {
		return false
	}
	g.setArcs(u, v, false)
	g.m--
	g.topoEpoch++
	g.record(Write{Kind: WriteRemoveEdge, V: u, W: v})
	return true
}

// setArcs stores in g's table copies of u's and v's pages whose rows of u
// and v gain the arc to the other, or lose it when insert is false. When u
// and v share a page, one copy carries both rows. The caller has already
// checked that the edge is absent, or present.
func (g *Graph) setArcs(u, v V, insert bool) {
	u, v = min(u, v), max(u, v) // rows in page order
	if pu, pv := u>>pageBits, v>>pageBits; pu == pv {
		g.pages[pu] = g.pages[pu].with(insert, [2]V{u, v}, [2]V{v, u})
	} else {
		g.pages[pu] = g.pages[pu].with(insert, [2]V{u, v})
		g.pages[pv] = g.pages[pv].with(insert, [2]V{v, u})
	}
}

// with returns a copy of p whose rows gain, or lose, the given arcs
// {row's vertex, neighbour}, keeping each row sorted. The arcs' rows are in
// p and ascending.
func (p *page) with(insert bool, arcs ...[2]V) *page {
	d := int32(-1)
	if insert {
		d = 1
	}
	c := &page{off: p.off, adj: make([]V, 0, len(p.adj)+len(arcs))}
	from := int32(0)
	for _, a := range arcs {
		i := a[0] & (pageSize - 1)
		j, _ := slices.BinarySearch(p.adj[p.off[i]:p.off[i+1]], a[1])
		at := p.off[i] + int32(j)
		c.adj = append(c.adj, p.adj[from:at]...)
		if insert {
			c.adj, from = append(c.adj, a[1]), at
		} else {
			from = at + 1 // drop the arc
		}
		for k := i + 1; k <= pageSize; k++ {
			c.off[k] += d
		}
	}
	c.adj = append(c.adj, p.adj[from:]...)
	return c
}
