package core

import (
	"context"

	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
)

const sqrt3 = 1.7320508075688772

// ExactPlus is the advanced exact algorithm of Section 4.5 (Algorithm 5).
// It first runs AppAcc with a small εA, which (a) bounds the optimal radius
// to ropt ∈ [rΓ/(1+εA), rΓ] (Eq. 6) and (b) leaves a set of surviving
// anchors, one of which is within √2·β/2 of the true MCC center o. Every
// fixed vertex of the optimal MCC therefore lies in a narrow annulus
// [r⁻, r⁺] around some surviving anchor (Eqs. 7–8). ExactPlus collects those
// potential fixed vertices F1 and enumerates only pairs and triples drawn
// from F1 — typically orders of magnitude fewer than Exact's — with the
// Lemma 2 distance filters √3·r⁻ ≤ |v1,v2| ≤ 2·rcur.
func (s *Searcher) ExactPlus(q graph.V, k int, epsA float64) (*Result, error) {
	return s.Search(context.Background(), Query{Algo: "exact+", Q: q, K: k, EpsA: &epsA})
}

// exactPlus is ExactPlus's body: the AppAcc phase, then the F1 pair/triple
// scan of Algorithm 5, run by scanPar. The AppAcc phase checks the context
// per anchor and per binary-search iteration, the scan once per F1 pair.
func (s *Searcher) exactPlus(cand *candidateSet, q graph.V, k int, p resolvedParams) ([]graph.V, float64, error) {
	epsA := p.epsA
	st := s.appAcc(cand, q, k, epsA)
	if s.ctxErr != nil {
		return nil, 0, nil
	}
	if st.degenerate {
		// γ = 0: Φ has radius 0, which is optimal.
		return st.members, st.delta, nil
	}

	// Annulus bounds around surviving anchors (Eqs. 7 and 8).
	cover := sqrt2 * st.finalHalf // √2·β/2 for final cells of width β = 2·half
	rPlus := st.rcur + cover
	rMinus := st.rcur/(1+epsA) - cover
	if rMinus < 0 {
		rMinus = 0
	}

	// F1: vertices of S inside the annulus of at least one surviving anchor,
	// gathered by annulus range queries against the grid appAcc built over S
	// (the old path scanned all of S once per surviving anchor). The marker
	// deduplicates vertices that fall in several anchors' annuli.
	f1 := s.f1Buf[:0]
	s.inX.Reset()
	for _, cell := range st.finalCells {
		s.subBuf = s.ws.grid.InAnnulus(cell.C, rMinus, rPlus, s.subBuf[:0])
		for _, v := range s.subBuf {
			if !s.inX.Has(v) {
				s.inX.Mark(v)
				f1 = append(f1, v)
			}
		}
	}
	s.f1Buf = f1
	s.stats.F1Size = len(f1)

	best := parBest{r: st.rcur, ord: ordSeed, members: append(s.bestBuf[:0], st.members...)}
	sc := s.newScan(q, k, best.r)

	// Enumerate F1 pairs and triples with the distance filters of
	// Algorithm 5, lines 6-10. The incumbent tightens as better solutions
	// appear, narrowing the filters further.
	s.scanPar(sc, 0, len(f1), &best, func(w *Searcher, lo, hi int, b *parBest) bool {
		for i1 := lo; i1 < hi; i1++ {
			p1 := s.g.Loc(f1[i1])
			for i2 := i1 + 1; i2 < len(f1); i2++ {
				if w.canceled() {
					return false
				}
				p2 := s.g.Loc(f1[i2])
				d12 := p1.Dist(p2)
				// v2 plays the farthest-fixed-vertex role: Lemma 2 puts the
				// largest fixed-vertex distance in [√3·ropt, 2·ropt] ⊆
				// [√3·rMinus, 2·rcur].
				if d12 < sqrt3*rMinus-geom.Eps || d12 > 2*sc.r.load()+geom.Eps {
					continue
				}
				// Two fixed vertices: diameter circle.
				w.tryCircle(sc, geom.CircleFrom2(p1, p2), enumOrd{int32(i1), int32(i2), -1}, b)
				// Third fixed vertex: no farther from v1 than v2 is (F3 filter).
				for i3 := range f1 {
					if i3 == i1 || i3 == i2 {
						continue
					}
					if w.canceledTick() {
						return false
					}
					p3 := s.g.Loc(f1[i3])
					if p1.Dist(p3) > d12+geom.Eps || p2.Dist(p3) > d12+geom.Eps {
						continue
					}
					w.tryCircle(sc, geom.CircleFrom3(p1, p2, p3), enumOrd{int32(i1), int32(i2), int32(i3)}, b)
				}
			}
		}
		return true
	})
	s.bestBuf = best.members
	return best.members, deltaIsRadius, nil
}
