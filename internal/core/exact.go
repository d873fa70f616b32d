package core

import (
	"context"

	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
)

// Exact is the basic exact algorithm of Section 4.1 (Algorithm 1). By Lemma
// 1, the optimal MCC is fixed by two or three vertices on its boundary, so
// Exact enumerates every pair and triple of candidate vertices — ordered so
// the member farthest from q comes last — computes the circle each fixes,
// and keeps the smallest circle whose vertex set contains a feasible
// community. The enumeration stops early once the farthest member of a
// combination is more than 2·r from q (every vertex of a feasible solution
// inside a radius-r circle that contains q is within 2r of q).
//
// Worst-case cost is O(m·n³); this is the paper's deliberately naive
// baseline and is only practical on small graphs.
func (s *Searcher) Exact(q graph.V, k int) (*Result, error) {
	return s.Search(context.Background(), Query{Algo: "exact", Q: q, K: k})
}

// exact is Exact's body. The context is checked once per enumerated
// candidate pair, bounding the work after cancellation to the triples of one
// pair.
func (s *Searcher) exact(cand *candidateSet, q graph.V, k int, _ resolvedParams) ([]graph.V, float64, error) {
	X := cand.verts
	qLoc := s.g.Loc(q)

	// Index the candidate set once; every enumerated circle then cuts its
	// members from it with an output-sensitive range query instead of
	// scanning X.
	s.indexWorkingSet(X, q)

	// Seed the incumbent before the scan, not after it: X itself is feasible
	// (it is the connected k-structure containing q), so its MCC bounds ropt
	// from above and makes the d[i] > 2·rcur break and the Lemma 2 filters
	// tight from the first iteration. The degenerate pair {X[0], X[1]} — the
	// loop starts at i = 2 and never forms it — is likewise tried up front.
	rcur := s.mccOf(X).R
	best := append(s.bestBuf[:0], X...)

	if len(X) >= 2 {
		s.tryCircle(geom.CircleFrom2(s.g.Loc(X[0]), s.g.Loc(X[1])), qLoc, q, k, &rcur, &best)
	}

	if ws := s.parWorkersFor(len(X) - 2); ws != nil {
		if r, c, ok := s.exactScanPar(ws, X, qLoc, q, k, rcur); ok {
			rcur = r
			best = append(best[:0], c...)
		}
	} else {
	enum:
		for i := 2; i < len(X); i++ {
			if cand.dist(i) > 2*rcur {
				break // Algorithm 1, line 13
			}
			for j := 0; j < i; j++ {
				if s.canceled() {
					break enum
				}
				// Pair-fixed circle: segment X[j]X[i] as diameter (Lemma 1).
				pj := s.g.Loc(X[j])
				pi := s.g.Loc(X[i])
				if pj.Dist(pi) <= 2*rcur {
					s.tryCircle(geom.CircleFrom2(pj, pi), qLoc, q, k, &rcur, &best)
				}
				for h := j + 1; h < i; h++ {
					if s.canceledTick() {
						break enum
					}
					ph := s.g.Loc(X[h])
					// Lemma 2: all pairwise distances in Ψ are ≤ 2·ropt < 2·rcur.
					if pj.Dist(ph) > 2*rcur || ph.Dist(pi) > 2*rcur || pj.Dist(pi) > 2*rcur {
						continue
					}
					s.tryCircle(geom.CircleFrom3(pj, ph, pi), qLoc, q, k, &rcur, &best)
				}
			}
		}
	}
	s.bestBuf = best
	return best, deltaIsRadius, nil
}

// tryCircle tests one fixed circle of a serial Exact or ExactPlus scan and
// lowers the incumbent (*rcur, *best) when the circle holds a feasible
// community whose own MCC is strictly smaller.
func (s *Searcher) tryCircle(cc geom.Circle, qLoc geom.Point, q graph.V, k int, rcur *float64, best *[]graph.V) {
	s.stats.CirclesExamined++
	// The community contains q, so its MCC must cover q's location.
	if cc.R >= *rcur || !cc.Contains(qLoc) {
		return
	}
	// Last boundary before the expensive member gather + peel: bounds
	// post-cancellation work to the feasibility check already in flight.
	if s.canceled() {
		return
	}
	if c := s.circleFeasible(cc, q, k, nil); c != nil {
		if mcc := s.mccOf(c); mcc.R < *rcur {
			*rcur = mcc.R
			*best = append((*best)[:0], c...)
		}
	}
}
