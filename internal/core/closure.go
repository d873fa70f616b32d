package core

import (
	"sacsearch/internal/graph"
)

// CandidateClosure returns the candidate set X of (q, k) — the connected
// k-structure containing q — together with its frontier: the vertices
// outside X adjacent to a member. members is nil when q has no community at
// this k. When the cache holds (q, k)'s community — a query on this
// searcher's pool has searched it, as the search behind a standing query's
// answer has before its evaluation asks — members is that entry's, brought
// current from the journal: shared and immutable, so callers must not
// modify it. Otherwise (θ-SAC and the trivial orders never fill the cache)
// it is walked afresh.
// frontier is always freshly allocated; the marking runs on the searcher's
// scratch, so like a query this is not safe for concurrent use.
//
// The standing-query layer uses the closure as an invalidation gate: every
// registered algorithm (θ-SAC by theta.go's lemma) is a pure function of
// induced(X) and the locations of X, and (for the k-core metric) X can only
// change when an applied event touches X itself or moves a frontier vertex
// into the k-core, so a publication disjoint from the closure cannot change
// the answer.
func (s *Searcher) CandidateClosure(q graph.V, k int) (members, frontier []graph.V) {
	if q < 0 || int(q) >= s.g.NumVertices() || k < 1 {
		return nil, nil
	}
	if e := s.current(q, k); e != nil {
		members = e.members
		s.unpinEntry(e)
	} else {
		members = s.communityOf(q, k)
	}
	if members == nil {
		return nil, nil
	}
	in, seen := s.inX, s.visited
	in.Reset()
	in.MarkAll(members)
	seen.Reset()
	for _, v := range members {
		for _, u := range s.g.Neighbors(v) {
			if !in.Has(u) && !seen.Has(u) {
				seen.Mark(u)
				frontier = append(frontier, u)
			}
		}
	}
	return members, frontier
}
