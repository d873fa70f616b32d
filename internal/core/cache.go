package core

import (
	"slices"

	"sacsearch/internal/graph"
)

// Candidate-set cache. The candidate set X of a query (q, k) is the
// connected k-structure (k-ĉore, k-truss community or k-clique community)
// containing q — a function of topology only. Server and batch traffic is
// dominated by repeated queries into the same few communities (hot users
// re-query, nearby users share a community), so the Searcher memoizes
// membership per community and per k: every member vertex maps to the same
// entry, and any later query from any member skips the BFS / decomposition
// walk entirely. An entry also keeps the community's induced CSR and, per
// recent query vertex, the members in (distance, id) order with the prefix
// oracle built over that order (oracle.go).
//
// Both locations (check-ins) and topology (edge ops) change under a live
// searcher. Entries and views are stamped with the point of the graph's
// mutation timeline they reflect, and a lookup that finds an older stamp
// asks the graph's journal what happened in between (repair.go): a view
// moves the members that checked in to their new ranks, an entry checks that
// the edges that came and went left the community intact and patches its
// CSR. Starting over — a fresh BFS, a full re-sort — is what happens on
// first use, when the journal no longer reaches the stamp, or when the gap
// is too large for repair to pay; a repeated (q, k) with nothing relevant in
// between reuses everything at zero cost.
//
// The cache belongs to one Searcher and inherits its no-concurrent-use
// contract; Clone starts with an empty cache. Every query but θ-SAC takes its
// candidate set from it: there is no path around the cache, only a cold one
// (SetCandidateCaching).

// cacheKey identifies a (vertex, k) membership lookup.
type cacheKey struct {
	v graph.V
	k int32
}

// stamp is a point on a graph's mutation timeline: the two epochs, whose sum
// is the journal sequence (graph.Seq). An equal topology epoch means no edge
// op in between and an equal location epoch no check-in, however far apart
// the two points are; only when the relevant one differs is the journal
// asked for the gap.
type stamp struct {
	loc, topo uint64
}

func (st stamp) seq() uint64 { return st.loc + st.topo }

// now returns the timeline point of the searcher's (adopted) graph.
func (s *Searcher) now() stamp { return stamp{loc: s.g.LocEpoch(), topo: s.g.TopoEpoch()} }

// sortedView is a community's candidate set in ascending (distance from q,
// id) order as of the locations at at. Distances are not stored: the one at
// rank i is recomputed from the graph (candidateSet.dist) by the expression
// the sort keyed on. The embedded oracle memoizes prefix-feasibility answers
// for this ordering (see oracle.go); a change to the order or to an induced
// edge marks the prefix lengths it touched for repair.
type sortedView struct {
	q      graph.V
	at     stamp
	verts  []graph.V
	oracle prefixOracle
}

// maxViewsPerEntry bounds the distance-sorted views kept per community —
// one per recent query vertex. Server traffic concentrates on a modest set
// of hot users per community; the views list is move-to-front, so the
// hottest stay resident and the lookup scan stays short in practice (hot
// vertices are found in the first few slots).
const maxViewsPerEntry = 32

// cacheEntry is one community's cached state. members is nil for a negative
// entry (q has no feasible community at this k); negative entries are keyed
// only by the query vertex itself.
type cacheEntry struct {
	members []graph.V // immutable after store; discovery (BFS) order
	at      stamp     // members and the induced CSR reflect the topology here

	// Distance-sorted views of recent query vertices, most recent first.
	views []sortedView

	// Induced-subgraph CSR over members, in local ids (positions in
	// members), built lazily on the first feasibility check into the
	// community. Every candidate set an algorithm peels is a subset of
	// members, so the prefix oracle sweeps this dense, cross-community-edge-
	// free adjacency instead of the global CSR, and a query's working set
	// cuts its own CSR out of it (circle.go). adjOff is nil until built.
	adjOff   []int32
	adjLocal []int32
}

// buildInduced materializes the induced adjacency, into the entry's previous
// arrays when they are large enough. localOf must already map every member
// to its local id, with valid marking membership. A row lists the member's
// neighbors in ascending global id, which respliceRow reproduces.
func (e *cacheEntry) buildInduced(g *graph.Graph, localOf []int32, valid *graph.Marker) {
	n := len(e.members)
	e.adjOff = slices.Grow(e.adjOff[:0], n+1)[:n+1]
	e.adjOff[0] = 0
	for i, v := range e.members {
		d := int32(0)
		for _, u := range g.Neighbors(v) {
			if valid.Has(u) {
				d++
			}
		}
		e.adjOff[i+1] = e.adjOff[i] + d
	}
	e.adjLocal = slices.Grow(e.adjLocal[:0], int(e.adjOff[n]))[:e.adjOff[n]]
	cursor := int32(0)
	for _, v := range e.members {
		for _, u := range g.Neighbors(v) {
			if valid.Has(u) {
				e.adjLocal[cursor] = localOf[u]
				cursor++
			}
		}
	}
}

// bindLocal points the Searcher's global→local id translation at e. Binding
// is O(|members|) and skipped when e is already bound, so repeated queries
// into the same community pay nothing.
func (s *Searcher) bindLocal(e *cacheEntry) {
	if s.localEntry == e {
		return
	}
	if s.localOf == nil {
		n := s.g.NumVertices()
		s.localOf = make([]int32, n)
		s.localValid = graph.NewMarker(n)
	}
	s.localValid.Reset()
	for i, v := range e.members {
		s.localOf[v] = int32(i)
		s.localValid.Mark(v)
	}
	s.localEntry = e
}

// maxCachedVertices bounds the total member slots held by one Searcher's
// cache. When a store would exceed it, the whole cache is dropped — eviction
// is all-or-nothing because entries are shared by every member vertex and
// per-entry removal would need reverse indexes the common case never uses.
const maxCachedVertices = 1 << 20

// candCache memoizes community membership per (member vertex, k).
type candCache struct {
	index    map[cacheKey]*cacheEntry
	vertices int // Σ len(members) over distinct entries
}

// lookup returns the entry covering (v, k), if any.
func (c *candCache) lookup(v graph.V, k int) (*cacheEntry, bool) {
	if c.index == nil {
		return nil, false
	}
	e, ok := c.index[cacheKey{v, int32(k)}]
	return e, ok
}

// store records members as the community of (q, k). members == nil records a
// negative entry for q alone. The slice is retained; callers must not
// mutate it afterwards.
//
// fanout keys the entry by every member, so any later query from the same
// community hits it. That is sound only when communities partition vertices
// per k — true for k-core and k-truss (both are connected components of a
// fixed subgraph) but NOT for k-clique percolation, where communities
// overlap at shared vertices; overlapping structures must pass fanout=false
// so the entry is keyed by q alone.
func (c *candCache) store(q graph.V, k int, members []graph.V, at stamp, fanout bool) *cacheEntry {
	if c.index == nil {
		c.index = make(map[cacheKey]*cacheEntry)
	}
	if c.vertices+len(members) > maxCachedVertices {
		c.index = make(map[cacheKey]*cacheEntry)
		c.vertices = 0
	}
	e := &cacheEntry{members: members, at: at}
	if members == nil || !fanout {
		c.index[cacheKey{q, int32(k)}] = e
	} else {
		for _, v := range members {
			c.index[cacheKey{v, int32(k)}] = e
		}
	}
	c.vertices += len(members)
	return e
}

// remove drops e, found under (q, k), and every other key that leads to it.
func (c *candCache) remove(e *cacheEntry, q graph.V, k int) {
	delete(c.index, cacheKey{q, int32(k)})
	for _, v := range e.members {
		if key := (cacheKey{v, int32(k)}); c.index[key] == e {
			delete(c.index, key)
		}
	}
	c.vertices -= len(e.members)
}

// viewFor returns the sorted-view slot for query vertex q, moved to the
// front of the entry's view list. held reports whether the slot already
// holds q's view (as of its stamp); when false the slot was recycled — its
// backing storage is reusable — and the caller must fill verts and stamp it.
func (e *cacheEntry) viewFor(q graph.V) (vw *sortedView, held bool) {
	for i := range e.views {
		if e.views[i].q == q {
			v := e.views[i]
			copy(e.views[1:i+1], e.views[:i])
			e.views[0] = v
			return &e.views[0], true
		}
	}
	// Not present: recycle the tail slot (evicting its owner when full) and
	// move it to the front.
	if len(e.views) < maxViewsPerEntry {
		e.views = append(e.views, sortedView{})
	}
	v := e.views[len(e.views)-1]
	copy(e.views[1:], e.views[:len(e.views)-1])
	v.q = q
	e.views[0] = v
	return &e.views[0], false
}

// clear drops every entry.
func (c *candCache) clear() {
	c.index = nil
	c.vertices = 0
}
