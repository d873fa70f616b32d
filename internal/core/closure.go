package core

import (
	"sacsearch/internal/graph"
)

// A Token names the members of a community as one walk found them: an
// entry and the copies that bring it forward share them, no other walk's
// are the same, and a token holds them, so they are never reused while it
// lives. The zero Token is an empty community's.
type Token struct{ first *graph.V }

func tokenOf(e *cacheEntry) Token {
	if len(e.members) == 0 {
		return Token{}
	}
	return Token{&e.members[0]}
}

// Token returns the token of (q, k)'s community as this searcher's queries
// read it: the stored entry brought to the searcher's topology (current),
// or, where the store holds none — θ-SAC's search never fills it — the
// community walked afresh and stored. A later Stood of (q, k) compares it;
// where the store holds the community at a later topology, which it would
// not trade for a walk behind it, the token is a fresh one that no entry
// carries, taken without a walk, so that Stood reports false.
func (s *Searcher) Token(q graph.V, k int) Token {
	if q < 0 || int(q) >= s.g.NumVertices() || k < 1 {
		return Token{}
	}
	// Read unpinned: a misread entry only means the walk below.
	if sl := s.store.lookup(q, k); sl != nil && sl.cur.Load().topo.Load() > s.g.TopoEpoch() {
		return Token{new(graph.V)}
	}
	e, _ := s.enter(q, k)
	tok := tokenOf(e)
	s.release()
	return tok
}

// Stood reports whether ws, the writes between the state tok was taken on
// (Token) and the searcher's, leave every answer to (q, k) as it was; false
// means they may have changed it. It reads the store alone and walks no
// community; an entry behind the searcher's topology comes forward as the
// next query of (q, k) would bring it (revalidate).
//
// Every registered algorithm, θ-SAC included (theta.go's lemma), is a
// function of the candidate set X, the edges inside it and its members'
// locations. Stood reports true only when all three stand:
//   - X: the stored entry of (q, k), brought to the searcher's topology by
//     current, carries tok. What current returns is q's community on the
//     searcher's graph (revalidate's proof), and an entry carrying tok holds
//     the members of the walk tok names, so X is the set it was.
//   - the edges inside X: no write in ws adds or removes an edge between two
//     members;
//   - the locations: no write in ws checks a member in.
//
// Without a current entry — none stored, one revalidate dropped (every
// k-truss and k-clique entry on any edge op), or one ahead of the searcher's
// snapshot — Stood reports false. An empty X (q has no community) stands
// while the store's entry of (q, k) is a negative one: no write but one
// that changes X can matter, and revalidate drops the negative entry when
// q's core number reaches k.
func (s *Searcher) Stood(q graph.V, k int, tok Token, ws []graph.Write) bool {
	if q < 0 || int(q) >= s.g.NumVertices() || k < 1 {
		return false
	}
	e := s.current(q, k)
	if e == nil {
		return false
	}
	defer s.unpinEntry(e)
	if tokenOf(e) != tok {
		return false
	}
	if e.members == nil {
		return true
	}
	s.bindLocal(e)
	for _, w := range ws {
		if s.localValid.Has(w.V) && (w.Kind == graph.WriteCheckin || s.localValid.Has(w.W)) {
			return false
		}
	}
	return true
}

// CandidateClosure returns the candidate set X of (q, k) — the connected
// k-structure containing q — together with its frontier: the vertices
// outside X adjacent to a member. members is nil when q has no community at
// this k; when the store holds (q, k)'s community it is that entry's, shared
// and immutable, so callers must not modify it. frontier is freshly
// allocated; the marking runs on the searcher's scratch, so like a query
// this is not safe for concurrent use.
//
// Nothing in the serving tier calls it (a standing query asks Stood). It is
// kept only for bench/layers.go's core.closure.p50_ms.
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
