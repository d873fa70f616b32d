package core

import (
	"context"

	"sacsearch/internal/graph"
)

// AppInc is the 2-approximation of Section 4.2 (Algorithm 2). It grows the
// circle O(q, δ) outward one candidate vertex at a time, in ascending
// distance from q, and stops at the first radius δ whose vertex set contains
// a feasible solution Φ. By Lemma 4, the MCC of Φ has radius γ ≤ 2·ropt.
//
// The returned Result carries Φ (Members), γ (MCC.R) and δ (Delta).
func (s *Searcher) AppInc(q graph.V, k int) (*Result, error) {
	return s.Search(context.Background(), Query{Algo: "appinc", Q: q, K: k})
}

// appInc is AppInc's body: the growth loop, which checks the context once
// per grown prefix.
func (s *Searcher) appInc(cand *candidateSet, q graph.V, k int, _ resolvedParams) ([]graph.V, float64, error) {
	// inX marks the growing prefix S; qNbrs counts |S ∩ nb(q)|.
	s.inX.Reset()
	qNbrs := 0
	needQ := s.minQueryNeighbors(k)
	for i, v := range cand.verts {
		if s.canceled() {
			return nil, 0, nil
		}
		s.inX.Mark(v)
		if v != q && s.g.HasEdge(q, v) {
			qNbrs++
		}
		// Cheap necessary conditions before the O(m) feasibility check
		// (Algorithm 2, line 13): q needs enough neighbors in S, and — when
		// the previous prefix was infeasible — any feasible solution must
		// use the newly added vertex v, so v needs enough neighbors too.
		if qNbrs < needQ {
			continue
		}
		if v != q {
			vNbrs := 0
			for _, u := range s.g.Neighbors(v) {
				if s.inX.Has(u) {
					vNbrs++
				}
			}
			if vNbrs < needQ {
				continue
			}
		}
		if c := s.feasible(cand.verts[:i+1], q, k); c != nil {
			return c, cand.dist(i), nil
		}
	}
	// The full candidate set X is itself feasible (it is q's connected
	// k-structure), so the loop must have returned. Reaching here means the
	// necessary-condition bookkeeping skipped the final check — or a
	// cancellation inside the oracle build answered it nil; run it.
	if c := s.feasible(cand.verts, q, k); c != nil {
		return c, cand.maxDist(), nil
	}
	return nil, 0, ErrNoCommunity
}
