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

// exact is Exact's body: the pair/triple scan of Algorithm 1, run by
// scanPar. The context is checked once per enumerated candidate pair,
// bounding the work after cancellation to the triples of one pair.
func (s *Searcher) exact(cand *candidateSet, q graph.V, k int, _ resolvedParams) ([]graph.V, float64, error) {
	X := cand.verts

	// Index the candidate set once; every enumerated circle then cuts its
	// members from it with an output-sensitive range query instead of
	// scanning X.
	s.indexWorkingSet(X, q)

	// Seed the incumbent before the scan, not after it: X itself is feasible
	// (it is the connected k-structure containing q), so its MCC bounds ropt
	// from above and makes the d[i] > 2·rcur break and the Lemma 2 filters
	// tight from the first iteration. The degenerate pair {X[0], X[1]} — the
	// scan starts at i = 2 and never forms it — is likewise tried up front,
	// at the index it would have at i = 1.
	best := parBest{r: s.mccOf(X).R, ord: ordSeed, members: append(s.bestBuf[:0], X...)}
	sc := s.newScan(q, k, best.r)
	if len(X) >= 2 {
		s.tryCircle(sc, geom.CircleFrom2(s.g.Loc(X[0]), s.g.Loc(X[1])), enumOrd{1, 0, -1}, &best)
	}
	s.scanPar(sc, 2, len(X), &best, func(w *Searcher, lo, hi int, b *parBest) bool {
		for i := lo; i < hi; i++ {
			pi := s.g.Loc(X[i])
			if sc.qLoc.Dist(pi) > 2*sc.r.load() {
				// Algorithm 1, line 13. The distance from q ascends with i
				// and the incumbent only shrinks, so no later i passes.
				return false
			}
			for j := 0; j < i; j++ {
				if w.canceled() {
					return false
				}
				// Pair-fixed circle: segment X[j]X[i] as diameter (Lemma 1).
				pj := s.g.Loc(X[j])
				if pj.Dist(pi) <= 2*sc.r.load() {
					w.tryCircle(sc, geom.CircleFrom2(pj, pi), enumOrd{int32(i), int32(j), -1}, b)
				}
				for h := j + 1; h < i; h++ {
					if w.canceledTick() {
						return false
					}
					ph := s.g.Loc(X[h])
					// Lemma 2: all pairwise distances in Ψ are ≤ 2·ropt < 2·rcur.
					rc := sc.r.load()
					if pj.Dist(ph) > 2*rc || ph.Dist(pi) > 2*rc || pj.Dist(pi) > 2*rc {
						continue
					}
					w.tryCircle(sc, geom.CircleFrom3(pj, ph, pi), enumOrd{int32(i), int32(j), int32(h)}, b)
				}
			}
		}
		return true
	})
	s.bestBuf = best.members
	return best.members, deltaIsRadius, nil
}
