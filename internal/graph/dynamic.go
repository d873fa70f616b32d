package graph

import (
	"fmt"
	"maps"
	"slices"
)

// Dynamic topology. A built Graph stores its adjacency in CSR form, which is
// compact and cache-friendly but cannot absorb edge churn in place. AddEdge
// and RemoveEdge therefore write through a delta layer: a mutation touching a
// vertex stores a new sorted row for it in the patched map, and every later
// read of that vertex serves the patched row instead of the CSR row. A stored
// row is never edited, so Clone shares rows (and the map, until the next edge
// mutation on either side) instead of copying edge history on every snapshot
// publication. Merging happens at write time — O(deg) per endpoint — so
// Neighbors stays allocation-free and safe for concurrent readers between
// mutations.
//
// When the patched fraction grows past compactFraction the delta layer is
// folded back into a fresh CSR (Compact), bounding both the map overhead and
// the scatter of patched rows. Compaction changes the representation, never
// the topology: the topology epoch is NOT bumped, so caches keyed on it stay
// valid across a compaction.
//
// Mutating topology stales every topology-derived structure built from the
// graph — core decompositions, candidate caches, spatial candidate indexes.
// Consumers detect it by comparing TopoEpoch (or Seq) and learn which edges
// changed from the mutation journal (journal.go); core numbers are kept
// current incrementally by kcore.Maintainer (or a Searcher's Apply, which
// wraps one).

// compactMinPatched and compactFraction gate automatic compaction: the delta
// layer is folded into the CSR when more than 1/compactFraction of the
// vertices carry patched rows (and at least compactMinPatched do, so tiny
// graphs don't thrash).
const (
	compactMinPatched = 64
	compactFraction   = 4
)

// TopoEpoch returns the topology version: it changes whenever AddEdge or
// RemoveEdge mutates the edge set. Consumers that cache topology-derived
// data (community memberships, induced subgraphs) compare epochs to decide
// whether the cache is still valid. Compaction does not change it.
func (g *Graph) TopoEpoch() uint64 { return g.topoEpoch }

// PatchedVertices returns the number of vertices whose adjacency currently
// lives in the delta layer rather than the CSR. Zero after Compact.
func (g *Graph) PatchedVertices() int { return len(g.patched) }

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
	g.ownPatched()
	g.insertArc(u, v)
	g.insertArc(v, u)
	g.m++
	g.topoEpoch++
	g.record(Write{Kind: WriteAddEdge, V: u, W: v})
	g.maybeCompact()
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
	g.ownPatched()
	g.removeArc(u, v)
	g.removeArc(v, u)
	g.m--
	g.topoEpoch++
	g.record(Write{Kind: WriteRemoveEdge, V: u, W: v})
	g.maybeCompact()
	return true
}

// ownPatched makes the patched map safe to write: created on first use, and
// copied (rows shared) when a Clone may still be reading it.
func (g *Graph) ownPatched() {
	switch {
	case g.patched == nil:
		g.patched = make(map[V][]V)
	case g.patchedShared.Load():
		g.patched = maps.Clone(g.patched)
	}
	g.patchedShared.Store(false)
}

// insertArc stores u's adjacency row with v added, keeping it sorted.
func (g *Graph) insertArc(u, v V) {
	old := g.Neighbors(u)
	i, _ := slices.BinarySearch(old, v)
	nb := make([]V, len(old)+1)
	copy(nb, old[:i])
	nb[i] = v
	copy(nb[i+1:], old[i:])
	g.patched[u] = nb
}

// removeArc stores u's adjacency row with v deleted. The caller has already
// checked the edge exists.
func (g *Graph) removeArc(u, v V) {
	old := g.Neighbors(u)
	i, _ := slices.BinarySearch(old, v)
	nb := make([]V, len(old)-1)
	copy(nb, old[:i])
	copy(nb[i:], old[i+1:])
	g.patched[u] = nb
}

// maybeCompact folds the delta layer into the CSR when it has grown past the
// compaction thresholds.
func (g *Graph) maybeCompact() {
	if len(g.patched) > compactMinPatched && len(g.patched)*compactFraction > g.NumVertices() {
		g.Compact()
	}
}

// Compact rebuilds the CSR from the current (CSR + delta) adjacency and
// clears the delta layer. Topology is unchanged, so the topology epoch is
// not bumped and Neighbors results are identical before and after; only the
// backing representation moves. Not safe for concurrent use with readers.
func (g *Graph) Compact() {
	g.mustBeMutable()
	if len(g.patched) == 0 {
		g.patched = nil
		return
	}
	n := g.NumVertices()
	offsets := make([]int32, n+1)
	for v := 0; v < n; v++ {
		offsets[v+1] = offsets[v] + int32(len(g.Neighbors(V(v))))
	}
	adj := make([]V, offsets[n])
	for v := 0; v < n; v++ {
		copy(adj[offsets[v]:offsets[v+1]], g.Neighbors(V(v)))
	}
	g.offsets = offsets
	g.adj = adj
	g.patched = nil
	g.patchedShared.Store(false)
}
