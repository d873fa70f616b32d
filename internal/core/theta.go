package core

import (
	"context"

	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
)

// θ-SAC reads only the candidate set. Call a connected subgraph of G[S] that
// holds q and meets the structure metric (minimum degree ≥ k; every edge in
// ≥ k-2 of its triangles; k-cliques percolating from one through q) a
// structure of q in S. Structures are closed under union, so S has a largest,
// St(S) (Searcher.feasible), and the candidate set every other algorithm
// reads is X = St(V) (Searcher.candidates).
//
// Lemma. With R the vertices reachable from q inside O(q, θ) (θ-SAC's BFS),
// θ-SAC's answer St(R) equals St(X ∩ O(q, θ)).
//
// Proof. (a) A structure of q in any S is one in V, each metric being a
// property of the subgraph alone, so St(S) ⊆ X. (b) A structure of q inside
// O(q, θ) is connected, so it lies in R. By (a), St(R) is a structure in
// X ∩ O(q, θ), hence inside St(X ∩ O(q, θ)); by (b), St(X ∩ O(q, θ)) lies
// in R, hence inside St(R). □
//
// So θ-SAC's answer is a function of X, its induced edges and its members'
// locations, as every other algorithm's is, and the serving layers treat it
// alike. The body still gathers by BFS: answering from q's cached view of X
// measured slower (ROADMAP, parked items).

// ThetaSAC is the θ-SAC search of Section 3: a variant of Global [29] that
// first gathers the vertices connected to q inside the fixed circle O(q, θ)
// by BFS, then returns the k-ĉore containing q within them. Unlike SAC
// search it needs the caller to guess θ: too small and no community exists
// (ErrNoCommunity), too large and the community is not spatially compact —
// the sensitivity Figure 11 quantifies.
func (s *Searcher) ThetaSAC(q graph.V, k int, theta float64) (*Result, error) {
	return s.Search(context.Background(), Query{Algo: "theta", Q: q, K: k, Theta: &theta})
}

// thetaSAC is ThetaSAC's body; it gathers from the circle, not from the
// candidate set, so cand is nil. The context is checked before the BFS gather
// and before the single feasibility peel (the two O(m) phases).
func (s *Searcher) thetaSAC(_ *candidateSet, q graph.V, k int, p Resolved) ([]graph.V, float64, error) {
	if s.canceled() {
		return nil, 0, nil
	}
	circle := geom.Circle{C: s.g.Loc(q), R: p.Theta}
	inCircle := func(v graph.V) bool { return circle.Contains(s.g.Loc(v)) }
	S := graph.BFSFrom(s.g, q, inCircle, s.visited, s.vertBuf[:0])
	s.vertBuf = S
	s.stats.CandidateSize = len(S)
	if s.canceled() {
		return nil, 0, nil
	}
	if c := s.feasible(S, q, k); c != nil {
		return c, p.Theta, nil
	}
	return nil, 0, ErrNoCommunity
}
