package core

import (
	"context"
	"slices"

	"sacsearch/internal/graph"
)

// AppFast is the (2+εF)-approximation of Section 4.3 (Algorithm 3). It
// binary-searches the radius δ of the smallest q-centered circle containing
// a feasible solution, between the lower bound l (distance to q's k-th
// nearest community neighbor) and upper bound u (farthest candidate), with
// the early-stopping gap α = r·εF/(2+εF) of Lemma 5. εF = 0 converges to
// exactly the AppInc result Φ.
func (s *Searcher) AppFast(q graph.V, k int, epsF float64) (*Result, error) {
	return s.Search(context.Background(), Query{Algo: "appfast", Q: q, K: k, EpsF: &epsF})
}

// appFast is AppFast's body.
func (s *Searcher) appFast(cand *candidateSet, q graph.V, k int, p Resolved) ([]graph.V, float64, error) {
	members, delta := s.appFastSearch(cand, q, k, p.EpsF)
	return members, delta, nil
}

// queryNeighborLowerBound returns the distance to q's needQ-th nearest
// neighbor inside the candidate set — the lower bound l of Eq (1). It
// iterates q's adjacency once, O(deg(q) log deg(q)): X is the bound cache
// entry's member set, which localValid already marks.
func (s *Searcher) queryNeighborLowerBound(q graph.V, needQ int) float64 {
	if needQ <= 0 {
		return 0
	}
	nbr := s.distBuf[:0]
	qp := s.g.Loc(q)
	for _, u := range s.g.Neighbors(q) {
		if s.localValid.Has(u) {
			nbr = append(nbr, qp.Dist(s.g.Loc(u)))
		}
	}
	slices.Sort(nbr)
	s.distBuf = nbr
	if len(nbr) < needQ {
		return 0
	}
	return nbr[needQ-1]
}

// appFastSearch runs the radius binary search over the candidate set and
// returns the best community found together with the radius δ of the
// smallest q-centered circle known to contain it. The returned slice is
// read-only and borrowed: it is the candidate set itself, the view's oracle
// answer or fastBuf, valid until the next query (or appFastSearch call) on
// this Searcher; callers that retain it must copy. On the prefix oracle's
// path nothing here copies or scans X: a feasible probe updates Λ and u in
// O(1). The context is checked once per binary-search iteration.
func (s *Searcher) appFastSearch(cand *candidateSet, q graph.V, k int, epsF float64) ([]graph.V, float64) {
	// Lower/upper bounds of Eq (1): any feasible solution keeps at least
	// minQueryNeighbors(k) of q's neighbors inside the circle, so δ is at
	// least the distance to the needQ-th nearest of them.
	l := s.queryNeighborLowerBound(q, s.minQueryNeighbors(k))
	u := cand.maxDist()

	// Λ starts as the whole k-ĉore X (always feasible), held by reference.
	best := cand.verts
	bestDelta := u

	// Iterate until the bracket collapses. The guard is an order of
	// magnitude above the geom.Eps containment tolerance, preventing a
	// floating-point livelock once u-l shrinks under the tolerance used by
	// prefixWithin; on unit-square data 1e-8 is far below any vertex
	// spacing that matters.
	for u-l > 1e-8 {
		if s.canceled() {
			break
		}
		s.stats.BinaryIters++
		r := (l + u) / 2
		alpha := r * epsF / (2 + epsF)
		S := cand.prefixWithin(r)
		if c := s.feasible(S, q, k); c != nil {
			if s.isOracleAnswer(c) {
				// The oracle's answer stands until the view changes, and its
				// last member is its farthest (oracle.go).
				best = c
				bestDelta = distFrom(cand.qp, cand.locs, c[len(c)-1])
			} else {
				best = append(s.fastBuf[:0], c...)
				s.fastBuf = best
				bestDelta = s.maxDistFrom(cand.qp, c)
			}
			if r-l <= alpha {
				return best, bestDelta
			}
			u = bestDelta // max_{v∈Λ} |q,v| (Algorithm 3, line 11)
		} else {
			if u-r <= alpha {
				return best, bestDelta
			}
			// Smallest candidate distance beyond r: the next radius at
			// which the prefix actually grows (Algorithm 3, line 14).
			nxt := cand.nextDistAfter(r)
			if nxt < 0 || nxt > u {
				return best, bestDelta
			}
			l = nxt
		}
	}
	return best, bestDelta
}
