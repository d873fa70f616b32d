package core

import (
	"slices"

	"sacsearch/internal/graph"
)

// Snapshot support. Snapshot-isolated serving (internal/snapshot) publishes
// immutable graph views; the two primitives here keep queries against those
// views cheap. SnapshotOnto derives a base Searcher for a freshly published
// clone without re-running the O(m) decomposition, and AdoptFrom rebinds a
// pooled worker to a snapshot's base in O(1) so the worker's scratch space
// and warmed candidate cache survive across publications — the snapshot's
// graph carries the mutation journal of the timeline it was cut from, and
// the cache repairs itself from it on the next query (repair.go).

// SnapshotOnto returns a base Searcher over g — an immutable clone of this
// searcher's graph — carrying a private copy of the current core
// decomposition, so it is detached from later in-place maintainer updates on
// this searcher. Cost is O(n) (the copy), not O(m) (a re-decomposition).
//
// coresFrom, when non-nil, must be a previous snapshot base whose topology
// epoch equals g's: its (immutable) core slice is shared instead of copied,
// which makes location-only publications O(1) in decomposition cost. The
// k-truss number map, when present, is always shared: it is immutable
// because k-truss searchers reject topology updates.
func (s *Searcher) SnapshotOnto(g *graph.Graph, coresFrom *Searcher) *Searcher {
	cores := s.cores
	if coresFrom != nil {
		cores = coresFrom.cores
	} else {
		cores = slices.Clone(cores)
	}
	snap := &Searcher{
		g:         g,
		structure: s.structure,
		cores:     cores,
		truss:     s.truss,
		peeler:    nil, // base searchers are cloned from, never queried
		inX:       nil,
		visited:   nil,
		noCache:   s.noCache,
		parallel:  s.parallel,
	}
	return snap
}

// AdoptFrom rebinds this searcher to base's graph and decomposition. It is
// the pooled-worker half of snapshot serving: the graph pointer, core slice
// and truss map are swapped in O(1); scratch buffers (sized to the vertex
// count, which snapshots never change) and the candidate cache carry over.
// Cached memberships, induced subgraphs and sorted views are stamped with the
// point of the mutation timeline they reflect; the next query compares the
// stamp with the adopted graph's and absorbs the journaled mutations in
// between — or starts over when the adopted snapshot is older than the stamp
// or more than a journal's length ahead of it. All snapshots a worker adopts
// must come off one timeline (one engine's writer graph and its clones), so
// an equal epoch means an unchanged graph and a journal gap is the whole
// difference.
//
// Both searchers must use the same structure metric and vertex count;
// mismatches panic (adoption across datasets is a programming bug).
func (s *Searcher) AdoptFrom(base *Searcher) {
	if s.structure != base.structure {
		panic("core: AdoptFrom across structure metrics")
	}
	if s.g != base.g {
		if s.g.NumVertices() != base.g.NumVertices() {
			panic("core: AdoptFrom across vertex counts")
		}
		s.g = base.g
		s.peeler.SetGraph(base.g)
		if s.trussChk != nil {
			s.trussChk.SetGraph(base.g)
		}
		if s.cliqueChk != nil {
			s.cliqueChk.SetGraph(base.g)
		}
		// The maintainer wraps the old graph and the old core slice; edge
		// updates on a pooled worker would corrupt the snapshot anyway, so
		// drop it and let it re-wrap lazily if ever used.
		s.maint = nil
	}
	s.cores = base.cores
	s.truss = base.truss
}
