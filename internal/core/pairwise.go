package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
)

// Pairwise-distance SAC search — the paper's Section 6 future work ("we
// will examine other spatial cohesiveness measures (e.g., pair-wise vertex
// distances)"). Instead of minimizing the MCC radius, these variants
// minimize the community's diameter: the maximum distance between any two
// members.
//
// Minimizing the diameter exactly is much harder than minimizing the MCC
// radius: a candidate set with all pairwise distances ≤ d is a clique in the
// distance graph, so the feasibility test loses the monotone circle
// structure the MCC algorithms exploit (Guo et al. [17], which the paper
// cites for Lemma 2, study the same obstacle for the m-closest-keywords
// query and settle for approximations). We follow the same path:
//
//   - MinDiam2Approx: the k-ĉore inside the smallest q-centered ball that
//     contains a feasible solution has diameter ≤ 2·Dopt.
//   - MinDiamLens: enumerating member pairs (u,v) in ascending distance and
//     testing the lens ball(u,|u,v|) ∩ ball(v,|u,v|) tightens the guarantee
//     to √3·Dopt, because all of Ψ lies in the lens of its own diameter
//     pair, and a lens of radius d has geometric diameter √3·d.

// DiameterOf returns the maximum pairwise distance among the members'
// locations (0 for fewer than two members).
func DiameterOf(g *graph.Graph, members []graph.V) float64 {
	var best float64
	for i := 0; i < len(members); i++ {
		pi := g.Loc(members[i])
		for j := i + 1; j < len(members); j++ {
			if d := pi.Dist(g.Loc(members[j])); d > best {
				best = d
			}
		}
	}
	return best
}

// MinDiam2Approx returns a connected k-structure community containing q
// whose diameter is at most twice the minimum possible. It finds the
// smallest q-centered ball containing a feasible solution (every feasible
// solution of diameter D fits in ball(q, D), so the ball radius δ ≤ Dopt)
// and returns the maximal community inside it (diameter ≤ 2δ ≤ 2·Dopt).
// Result.Delta carries the achieved diameter.
func (s *Searcher) MinDiam2Approx(q graph.V, k int) (*Result, error) {
	return s.minDiam(q, k, (*Searcher).minDiam2Approx)
}

func (s *Searcher) minDiam2Approx(cand *candidateSet, q graph.V, k int, _ resolvedParams) ([]graph.V, float64, error) {
	members, _ := s.appFastSearch(cand, q, k, 0)
	return members, DiameterOf(s.g, members), nil
}

// minDiam runs one minimum-diameter body through the query lifecycle. The
// variants are not in the wire registry, so (q, k) is checked as the
// registry checks it for any query; trivial k needs no body, its δ (the
// distance from q to its nearest neighbor, or 0) being the diameter already.
func (s *Searcher) minDiam(q graph.V, k int, body algoBody) (*Result, error) {
	if err := s.ValidateQuery(Query{Q: q, K: k}); err != nil {
		return nil, err
	}
	return s.run(context.Background(), q, k, resolvedParams{}, body, false)
}

// MinDiamLens returns a connected k-structure community containing q whose
// diameter is at most √3 times the minimum possible. It enumerates candidate
// pairs (u, v) in ascending distance; for each it collects the lens of
// vertices within |u,v| of both endpoints (q must be inside) and tests
// feasibility. The first feasible lens at distance d proves Dopt ≥ d is not
// needed — rather d ≤ Dopt because the optimal community's own diameter pair
// yields a feasible lens — and the community found inside it has diameter at
// most the lens's geometric diameter √3·d ≤ √3·Dopt. Result.Delta carries
// the achieved diameter.
//
// The enumeration is bounded by the 2-approximation: only candidates within
// ball(q, D2) matter, where D2 is MinDiam2Approx's achieved diameter, and
// pair distances beyond D2 never improve on it.
func (s *Searcher) MinDiamLens(q graph.V, k int) (*Result, error) {
	return s.minDiam(q, k, (*Searcher).minDiamLens)
}

func (s *Searcher) minDiamLens(cand *candidateSet, q graph.V, k int, _ resolvedParams) ([]graph.V, float64, error) {
	// Upper bound from the 2-approximation.
	bestMembers, _ := s.appFastSearch(cand, q, k, 0)
	bestDiam := DiameterOf(s.g, bestMembers)
	best := append([]graph.V(nil), bestMembers...)

	// Candidates that can participate in any solution beating the bound:
	// every member is within bestDiam of q.
	X := cand.prefixWithin(bestDiam)
	// Every lens below is a subset of X: index it, so the lens feasibility
	// checks peel X's own CSR.
	s.indexWorkingSet(X, q)

	// Pairs in ascending distance. q itself participates as a degenerate
	// "pair" only through its own membership in X; every real pair must
	// keep q inside its lens.
	type pair struct {
		u, v graph.V
		d    float64
	}
	var pairs []pair
	for i := 0; i < len(X); i++ {
		pi := s.g.Loc(X[i])
		for j := i + 1; j < len(X); j++ {
			d := pi.Dist(s.g.Loc(X[j]))
			if d >= bestDiam-geom.Eps {
				continue // cannot beat the current best
			}
			qp := s.g.Loc(q)
			if qp.Dist(pi) > d+geom.Eps || qp.Dist(s.g.Loc(X[j])) > d+geom.Eps {
				continue // q outside the lens
			}
			pairs = append(pairs, pair{X[i], X[j], d})
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].d < pairs[j].d })

	lens := s.subBuf[:0]
	for _, p := range pairs {
		if p.d >= bestDiam-geom.Eps {
			break // later pairs only get wider
		}
		pu, pv := s.g.Loc(p.u), s.g.Loc(p.v)
		lens = lens[:0]
		for _, w := range X {
			pw := s.g.Loc(w)
			if pw.Dist(pu) <= p.d+geom.Eps && pw.Dist(pv) <= p.d+geom.Eps {
				lens = append(lens, w)
			}
		}
		if c := s.feasible(lens, q, k); c != nil {
			if d := DiameterOf(s.g, c); d < bestDiam {
				bestDiam = d
				best = append(best[:0], c...)
			}
			// The first feasible lens already certifies the √3 guarantee;
			// smaller pairs cannot produce feasible lenses with smaller d
			// since pairs are sorted ascending.
			break
		}
	}
	s.subBuf = lens
	return best, bestDiam, nil
}

// MinDiamBrute enumerates every member subset of the candidate set (which
// must have at most maxBrute vertices) and returns the exact minimum
// diameter over feasible subsets. It exists as a test oracle and for tiny
// interactive queries; it is exponential.
const maxBrute = 20

func (s *Searcher) MinDiamBrute(q graph.V, k int) (*Result, error) {
	return s.minDiam(q, k, (*Searcher).minDiamBrute)
}

func (s *Searcher) minDiamBrute(cand *candidateSet, q graph.V, k int, _ resolvedParams) ([]graph.V, float64, error) {
	X := cand.verts
	if len(X) > maxBrute {
		return nil, 0, fmt.Errorf("core: MinDiamBrute candidate set too large (%d > %d)", len(X), maxBrute)
	}
	s.indexWorkingSet(X, q)
	qi := -1
	for i, v := range X {
		if v == q {
			qi = i
		}
	}
	bestDiam := math.Inf(1)
	var best []graph.V
	subset := make([]graph.V, 0, len(X))
	for mask := 1; mask < 1<<len(X); mask++ {
		if mask&(1<<qi) == 0 {
			continue
		}
		subset = subset[:0]
		for i := range X {
			if mask&(1<<i) != 0 {
				subset = append(subset, X[i])
			}
		}
		c := s.feasible(subset, q, k)
		if c == nil || len(c) != len(subset) {
			continue // not all of the subset survives: the subset itself infeasible
		}
		if d := DiameterOf(s.g, c); d < bestDiam {
			bestDiam = d
			best = append(best[:0], c...)
		}
	}
	if best == nil {
		return nil, 0, ErrNoCommunity
	}
	return best, bestDiam, nil
}
