package graph

import (
	"fmt"
	"slices"
)

// Dynamic topology. A graph's adjacency lives in pages (graph.go), and a
// page is never written once built. AddEdge and RemoveEdge therefore give
// each endpoint's page a new copy with the changed row — O(page) per
// endpoint — and store it in this graph's own table, leaving the old page
// intact for every clone and snapshot still holding it. Neighbors stays
// allocation-free and safe for concurrent readers between mutations.
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
	g.setArc(u, v, true)
	g.setArc(v, u, true)
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
	g.setArc(u, v, false)
	g.setArc(v, u, false)
	g.m--
	g.topoEpoch++
	g.record(Write{Kind: WriteRemoveEdge, V: u, W: v})
	return true
}

// setArc stores in g's table a copy of u's page whose row of u has v
// inserted, or deleted when insert is false, keeping it sorted. The caller
// has already checked that the arc is absent, or present.
func (g *Graph) setArc(u, v V, insert bool) {
	old, i := g.pages[u>>pageBits], u&(pageSize-1)
	at := old.off[i]
	j, _ := slices.BinarySearch(old.adj[at:old.off[i+1]], v)
	at += int32(j)
	mid, tail, d := []V(nil), at+1, int32(-1)
	if insert {
		mid, tail, d = []V{v}, at, 1
	}
	p := &page{off: old.off, adj: slices.Concat(old.adj[:at], mid, old.adj[tail:])}
	for k := i + 1; k <= pageSize; k++ {
		p.off[k] += d
	}
	g.pages[u>>pageBits] = p
}
