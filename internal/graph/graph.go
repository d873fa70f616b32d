// Package graph implements the spatial-graph substrate of the paper's data
// model (Section 3): an undirected graph G(V, E) whose vertices carry 2-D
// locations. Vertices are dense int32 indices 0..n-1; adjacency is stored in
// compressed sparse row (CSR) form so neighbor iteration is allocation-free.
//
// Locations are mutable (SetLoc) because the dynamic experiment of Section
// 5.2.3 replays check-ins that move users. Topology is mutable too — real
// geo-social backends churn friendships, not just locations — through a
// copy-on-write delta layer over the CSR (AddEdge, RemoveEdge, dynamic.go)
// that is periodically compacted back into CSR form; a separate topology
// epoch versions the edge set the way the location epoch versions locations.
package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"sacsearch/internal/geom"
)

// V is the vertex identifier type. Dense indices keep the per-vertex arrays
// used by every algorithm compact.
type V = int32

// IDs widens vertex ids to the int64 they travel as outside the engine (the
// /v1 wire carries no 32-bit type); nil stays nil.
func IDs(vs []V) []int64 {
	if vs == nil {
		return nil
	}
	out := make([]int64, len(vs))
	for i, v := range vs {
		out[i] = int64(v)
	}
	return out
}

// Graph is an undirected spatial graph in CSR form.
type Graph struct {
	// n is the vertex count. It is immutable for the life of the Graph and
	// deliberately NOT derived from offsets: Compact replaces the offsets
	// slice under topology mutation, so every accessor that must stay safe
	// without the caller's lock (NumVertices, and through it range checks
	// and Searcher.Clone scratch sizing) reads this field instead.
	n int

	offsets []int32 // len n+1; adjacency of v is adj[offsets[v]:offsets[v+1]]
	adj     []V

	// patched holds the adjacency rows mutated since the last compaction
	// (see dynamic.go). A row is immutable once stored — AddEdge/RemoveEdge
	// store a new one — so clones share rows, and share the map itself until
	// one side's next edge mutation copies it (patchedShared). nil when the
	// graph has no pending deltas, which keeps the static read path at one
	// nil check.
	patched map[V][]V
	// patchedShared is set on both sides by Clone: some other Graph may be
	// reading this map, so the next edge mutation must copy it first. Atomic
	// because Clone is a read of the graph as far as callers are concerned,
	// and concurrent readers are legal.
	patchedShared atomic.Bool

	locs   []geom.Point
	m      int      // number of undirected edges
	labels []string // optional external vertex names; may be nil

	// frozen marks the graph as an immutable published view (Freeze). Every
	// mutator panics on a frozen graph: snapshot-isolated serving publishes
	// clones to lock-free readers, so a mutation slipping through would be a
	// data race, not a recoverable error.
	frozen bool

	// locEpoch counts SetLoc calls. Location-derived caches (sorted candidate
	// distances, spatial indexes) validate against it instead of re-deriving
	// from scratch on every query: a cache is stale only when the epoch moved.
	locEpoch uint64
	// topoEpoch counts AddEdge/RemoveEdge calls, versioning the edge set the
	// same way. Topology-derived caches (community memberships, induced
	// subgraphs, core numbers) validate against it.
	topoEpoch uint64

	// journal remembers the last journalLen mutations, so a cache stamped
	// with an older Seq can ask what happened since (see journal.go).
	journal [journalLen]Mutation
}

// NumVertices returns |V|. Safe to call concurrently with topology
// mutation (the count never changes); everything else on a mutating Graph
// needs the caller's usual locking.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns |E| (undirected edges counted once).
func (g *Graph) NumEdges() int { return g.m }

// AvgDegree returns 2m/n, the d̂ statistic of Table 4.
func (g *Graph) AvgDegree() float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	return 2 * float64(g.m) / float64(n)
}

// Neighbors returns the adjacency list of v as a shared slice, sorted
// ascending. Callers must not modify it; it is valid until the next topology
// mutation.
func (g *Graph) Neighbors(v V) []V {
	if g.patched != nil {
		if nb, ok := g.patched[v]; ok {
			return nb
		}
	}
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// Degree returns deg_G(v).
func (g *Graph) Degree(v V) int {
	if g.patched != nil {
		if nb, ok := g.patched[v]; ok {
			return len(nb)
		}
	}
	return int(g.offsets[v+1] - g.offsets[v])
}

// Loc returns the location of v.
func (g *Graph) Loc(v V) geom.Point { return g.locs[v] }

// SetLoc updates the location of v. It is not safe for concurrent use with
// readers, and panics on a frozen graph.
func (g *Graph) SetLoc(v V, p geom.Point) {
	g.mustBeMutable()
	g.locs[v] = p
	g.locEpoch++
	g.record(MutSetLoc, v, 0)
}

// Freeze marks the graph immutable: every later SetLoc, AddEdge, RemoveEdge
// or Compact panics. A frozen graph is safe for concurrent readers without
// any locking — the property snapshot publication relies on. Freezing is
// one-way; Clone returns a mutable copy.
func (g *Graph) Freeze() { g.frozen = true }

// Frozen reports whether Freeze has been called.
func (g *Graph) Frozen() bool { return g.frozen }

// mustBeMutable panics when the graph is frozen. Mutating a published
// snapshot is a programming bug (it races with lock-free readers), so it is
// a panic rather than an error.
func (g *Graph) mustBeMutable() {
	if g.frozen {
		panic("graph: mutation of a frozen graph")
	}
}

// LocEpoch returns the location version: it changes whenever SetLoc is
// called. Consumers that cache location-derived data compare epochs to
// decide whether the cache is still valid.
func (g *Graph) LocEpoch() uint64 { return g.locEpoch }

// Locs returns the backing location slice (shared, do not resize). It exists
// so bulk consumers (spatial index, generators) avoid per-vertex calls.
func (g *Graph) Locs() []geom.Point { return g.locs }

// Dist returns the Euclidean distance |u, v| between the locations of u and v.
func (g *Graph) Dist(u, v V) float64 { return g.locs[u].Dist(g.locs[v]) }

// HasEdge reports whether {u, v} is an edge. Adjacency lists are sorted, so
// this is a binary search.
func (g *Graph) HasEdge(u, v V) bool {
	nb := g.Neighbors(u)
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= v })
	return i < len(nb) && nb[i] == v
}

// Label returns the external name of v, or its index rendered as text when
// no labels were provided.
func (g *Graph) Label(v V) string {
	if g.labels != nil && g.labels[v] != "" {
		return g.labels[v]
	}
	return fmt.Sprintf("v%d", v)
}

// SetLabels attaches external vertex names; len(labels) must equal n. It is
// a mutator like SetLoc and panics on a frozen graph.
func (g *Graph) SetLabels(labels []string) error {
	g.mustBeMutable()
	if len(labels) != g.NumVertices() {
		return fmt.Errorf("graph: %d labels for %d vertices", len(labels), g.NumVertices())
	}
	g.labels = labels
	return nil
}

// Points returns the locations of the given vertices, appended to dst.
func (g *Graph) Points(vs []V, dst []geom.Point) []geom.Point {
	for _, v := range vs {
		dst = append(dst, g.locs[v])
	}
	return dst
}

// MCCOf returns the minimum covering circle of the given vertices' locations.
func (g *Graph) MCCOf(vs []V) geom.Circle {
	pts := make([]geom.Point, 0, len(vs))
	return geom.MCC(g.Points(vs, pts))
}

// NearestNeighbor returns the adjacent vertex of q closest to q's location,
// or -1 when q has no neighbors. Used by the k=1 fast path of SAC search
// (Section 4.1).
func (g *Graph) NearestNeighbor(q V) V {
	best := V(-1)
	bestD := math.Inf(1)
	for _, u := range g.Neighbors(q) {
		if d := g.locs[q].Dist2(g.locs[u]); d < bestD {
			bestD = d
			best = u
		}
	}
	return best
}

// Clone returns an independent copy of the graph: either side can mutate
// without the other seeing it, which the dynamic-replay experiments and
// snapshot publication rely on. Locations and labels are copied. Adjacency
// is shared — the CSR slices and the delta layer's rows are never edited in
// place, and the delta layer's map is copied by whichever side mutates an
// edge next — so a clone costs the location copy however much edge history
// the graph carries. The mutation journal and both epochs carry over: the
// clone continues the same timeline. The clone is always mutable, even when
// g is frozen.
func (g *Graph) Clone() *Graph {
	locs := make([]geom.Point, len(g.locs))
	copy(locs, g.locs)
	var labels []string
	if g.labels != nil {
		labels = make([]string, len(g.labels))
		copy(labels, g.labels)
	}
	c := &Graph{
		n: g.n, offsets: g.offsets, adj: g.adj, patched: g.patched,
		locs: locs, m: g.m, labels: labels,
		locEpoch: g.locEpoch, topoEpoch: g.topoEpoch, journal: g.journal,
	}
	if g.patched != nil {
		c.patchedShared.Store(true)
		g.patchedShared.Store(true)
	}
	return c
}

// Builder accumulates edges and locations, then produces an immutable Graph.
// Duplicate edges and self-loops are dropped at Build time.
type Builder struct {
	n     int
	us    []V
	vs    []V
	locs  []geom.Point
	hasLo []bool
}

// NewBuilder creates a builder for a graph with n vertices, all initially at
// the origin.
func NewBuilder(n int) *Builder {
	return &Builder{
		n:     n,
		locs:  make([]geom.Point, n),
		hasLo: make([]bool, n),
	}
}

// NumVertices returns the vertex count the builder was created with.
func (b *Builder) NumVertices() int { return b.n }

// AddEdge records the undirected edge {u, v}. Self-loops are ignored.
// Vertices out of range cause a panic: callers construct ids themselves, so
// a range error is a programming bug, not an input error.
func (b *Builder) AddEdge(u, v V) {
	if u == v {
		return
	}
	if u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	b.us = append(b.us, u)
	b.vs = append(b.vs, v)
}

// SetLoc records the location of v.
func (b *Builder) SetLoc(v V, p geom.Point) {
	b.locs[v] = p
	b.hasLo[v] = true
}

// HasLoc reports whether SetLoc has been called for v.
func (b *Builder) HasLoc(v V) bool { return b.hasLo[v] }

// LocOf returns the location recorded for v (the zero Point when unset).
func (b *Builder) LocOf(v V) geom.Point { return b.locs[v] }

// Build produces the immutable CSR graph, deduplicating parallel edges.
func (b *Builder) Build() *Graph {
	n := b.n
	deg := make([]int32, n)
	for i := range b.us {
		deg[b.us[i]]++
		deg[b.vs[i]]++
	}
	offsets := make([]int32, n+1)
	for v := 0; v < n; v++ {
		offsets[v+1] = offsets[v] + deg[v]
	}
	adj := make([]V, offsets[n])
	cursor := make([]int32, n)
	copy(cursor, offsets[:n])
	for i := range b.us {
		u, v := b.us[i], b.vs[i]
		adj[cursor[u]] = v
		cursor[u]++
		adj[cursor[v]] = u
		cursor[v]++
	}
	// Sort each adjacency list and drop duplicates in place.
	outOff := make([]int32, n+1)
	out := adj[:0]
	written := int32(0)
	for v := 0; v < n; v++ {
		lo, hi := offsets[v], offsets[v+1]
		nb := adj[lo:hi]
		slices.Sort(nb)
		outOff[v] = written
		var prev V = -1
		for _, u := range nb {
			if u != prev {
				out = append(out, u)
				written++
				prev = u
			}
		}
	}
	outOff[n] = written
	// out aliases adj; copy the compacted prefix into a right-sized slice.
	finalAdj := make([]V, written)
	copy(finalAdj, out)
	m := 0
	for v := 0; v < n; v++ {
		m += int(outOff[v+1] - outOff[v])
	}
	g := &Graph{n: n, offsets: outOff, adj: finalAdj, locs: b.locs, m: m / 2}
	return g
}
