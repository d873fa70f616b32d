package core

import (
	"context"

	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
)

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
func (s *Searcher) thetaSAC(_ *candidateSet, q graph.V, k int, p resolvedParams) ([]graph.V, float64, error) {
	if s.canceled() {
		return nil, 0, nil
	}
	circle := geom.Circle{C: s.g.Loc(q), R: p.theta}
	inCircle := func(v graph.V) bool { return circle.Contains(s.g.Loc(v)) }
	S := graph.BFSFrom(s.g, q, inCircle, s.visited, s.vertBuf[:0])
	s.vertBuf = S
	s.stats.CandidateSize = len(S)
	if s.canceled() {
		return nil, 0, nil
	}
	if c := s.feasible(S, q, k); c != nil {
		return c, p.theta, nil
	}
	return nil, 0, ErrNoCommunity
}
