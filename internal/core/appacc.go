package core

import (
	"context"
	"math"

	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
	"sacsearch/internal/quadtree"
)

const sqrt2 = 1.4142135623730951

// appAccState is everything AppAcc learns about a query; ExactPlus builds
// its annulus pruning (Section 4.5) on top of it. One instance lives inside
// the Searcher and is reset per query, so the refinement allocates nothing
// in steady state (TestAppAccAllocs). The anchor probes are circle
// feasibility checks against the Searcher's per-query index of S.
type appAccState struct {
	members []graph.V // Γ: best community found
	delta   float64   // δ from AppFast(0)
	gamma   float64   // γ: MCC radius of Φ
	rcur    float64   // radius of the best (smallest) MCC found

	S []graph.V // the k-ĉore containing q inside O(q, 2γ) — contains Ψ

	frontier   quadtree.Frontier // the anchor level being refined
	finalCells []quadtree.Cell   // surviving anchors of the last processed level
	finalHalf  float64           // half-width of those cells
	degenerate bool              // γ == 0: Φ is already optimal
}

// reset prepares the state for a new query, keeping backing storage.
func (st *appAccState) reset() {
	st.members = st.members[:0]
	st.delta, st.gamma, st.rcur = 0, 0, 0
	st.S = st.S[:0]
	st.finalCells = st.finalCells[:0]
	st.finalHalf = 0
	st.degenerate = false
}

// AppAcc is the (1+εA)-approximation of Section 4.4 (Algorithm 4). It first
// runs AppFast(0) to obtain Φ, δ and γ, then refines a quadtree of anchor
// points over the square of width 2γ centered at q. For each surviving
// anchor p it binary-searches the smallest radius r_p such that O(p, r_p)
// contains a feasible solution, pruning anchors that provably cannot be
// close to the optimal MCC center o (Pruning1 and Pruning2). With cell
// threshold β = δ·εA/(√2(2+εA)) and gap α' = δ·εA/4, Lemma 7 bounds the
// ratio by 1+εA.
func (s *Searcher) AppAcc(q graph.V, k int, epsA float64) (*Result, error) {
	return s.Search(context.Background(), Query{Algo: "appacc", Q: q, K: k, EpsA: &epsA})
}

// appAccBody is AppAcc's body.
func (s *Searcher) appAccBody(cand *candidateSet, q graph.V, k int, p Resolved) ([]graph.V, float64, error) {
	st := s.appAcc(cand, q, k, p.EpsA)
	return st.members, st.delta, nil
}

// appAcc runs the full anchor refinement and returns its state. The context
// is checked once per anchor and once per anchor binary-search iteration; a
// canceled refinement returns the state as far as it got.
func (s *Searcher) appAcc(cand *candidateSet, q graph.V, k int, epsA float64) *appAccState {
	// Step 1: Φ, δ, γ via the εF = 0 binary search (Algorithm 4, line 2).
	phi, delta := s.appFastSearch(cand, q, k, 0)
	gamma := s.mccOf(phi).R

	st := &s.acc
	st.reset()
	st.members = append(st.members, phi...)
	st.delta = delta
	st.gamma = gamma
	st.rcur = gamma
	if gamma <= geom.Eps {
		// All of Φ sits at one point: radius 0 cannot be improved.
		st.degenerate = true
		return st
	}

	// Step 2: S ← the k-ĉore containing q within O(q, 2γ); by Corollary 2 it
	// contains the optimal solution Ψ (Algorithm 4, line 3).
	prefix := cand.prefixWithin(2 * gamma)
	if c := s.feasible(prefix, q, k); c != nil {
		st.S = append(st.S, c...)
	} else {
		// Cannot happen: Φ ⊆ O(q, δ) ⊆ O(q, 2γ) is feasible. Guard anyway.
		st.S = append(st.S, phi...)
	}
	// Index S once; every anchor probe below — and ExactPlus's annulus
	// filter and circle enumeration afterwards — cuts its circle from it.
	s.indexWorkingSet(st.S, q)

	// Step 3: level-by-level anchor refinement.
	qLoc := s.g.Loc(q)
	betaMin := delta * epsA / (sqrt2 * (2 + epsA)) // threshold on cell width β
	alphaP := delta * epsA / 4                     // binary-search gap α'
	frontier := &st.frontier
	frontier.Reset(quadtree.Root(qLoc, gamma))

	for frontier.Len() > 0 && frontier.Half()*2 >= betaMin {
		if s.canceled() {
			return st
		}
		cells := frontier.Cells()
		cover := cells[0].CoverRadius() // √2·β/2 for width β cells
		for i := range cells {
			if s.canceled() {
				return st
			}
			cell := &cells[i]
			// Pruning1: the optimal center o satisfies |o,q| ≤ ropt ≤ rcur,
			// so a cell farther than rcur + cover from q cannot contain o.
			if cell.C.Dist(qLoc) > st.rcur+cover {
				s.stats.AnchorsPruned++
				cell.InfeasibleR = math.Inf(1) // mark dead for expansion
				continue
			}
			// Pruning2 (inherited): O(cell.C, r) is known infeasible for
			// r = InfeasibleR; if even r ≥ rcur + cover is infeasible, the
			// cell cannot contain o.
			if cell.InfeasibleR >= st.rcur+cover {
				s.stats.AnchorsPruned++
				continue
			}
			s.stats.AnchorsProcessed++
			s.anchorSearch(st, cell, q, k, alphaP, cover)
		}
		// Record this level's survivors for Exact+ before expanding.
		st.finalCells = st.finalCells[:0]
		for _, cell := range cells {
			if !math.IsInf(cell.InfeasibleR, 1) && cell.InfeasibleR < st.rcur+cover &&
				cell.C.Dist(qLoc) <= st.rcur+cover {
				st.finalCells = append(st.finalCells, cell)
			}
		}
		st.finalHalf = frontier.Half()
		// Expand survivors to the next level (Pruning1/2 against the final
		// rcur of this level, as in Algorithm 4 line 25).
		frontier.Expand(func(c quadtree.Cell) bool {
			if math.IsInf(c.InfeasibleR, 1) {
				return false
			}
			if c.C.Dist(qLoc) > st.rcur+c.CoverRadius() {
				return false
			}
			return c.InfeasibleR < st.rcur+c.CoverRadius()
		})
	}
	return st
}

// anchorSearch binary-searches the smallest radius around anchor cell.C that
// still contains a feasible solution, updating the incumbent Γ/rcur and the
// cell's infeasibility knowledge.
func (s *Searcher) anchorSearch(st *appAccState, cell *quadtree.Cell, q graph.V, k int, alphaP, cover float64) {
	p := cell.C
	u := st.rcur + cover
	c0 := s.circleFeasible(geom.Circle{C: p, R: u}, q, k, nil)
	if c0 == nil {
		// No feasible solution within the widest useful radius: record for
		// Pruning2 and stop.
		if u > cell.InfeasibleR {
			cell.InfeasibleR = u
		}
		return
	}
	bestMembers := append(s.anchorBuf[:0], c0...)
	// Every later probe of this anchor is a smaller circle around p than the
	// one bestMembers was found in — r < u ≤ that circle's radius + Eps, by
	// more than Eps while the loop runs — so it cuts its vertices from
	// bestMembers' positions instead of from the grid.
	held := s.holdAnswer()
	l := st.delta / 2 // r_p ≥ ropt ≥ δ/2 (Lemma 3)
	if cell.InfeasibleR > l {
		l = cell.InfeasibleR
	}
	for u-l > alphaP && u-l > 1e-8 {
		if s.canceled() {
			break
		}
		s.stats.BinaryIters++
		r := (l + u) / 2
		if c := s.circleFeasible(geom.Circle{C: p, R: r}, q, k, held); c != nil {
			bestMembers = append(bestMembers[:0], c...)
			held = s.holdAnswer()
			// Shrink to the actual farthest member, not just r.
			u = s.maxDistFrom(p, bestMembers)
		} else {
			l = r
			if r > cell.InfeasibleR {
				cell.InfeasibleR = r
			}
		}
	}
	// The community found in the smallest feasible anchor circle; its true
	// MCC may be smaller still.
	if mcc := s.mccOf(bestMembers); mcc.R < st.rcur {
		st.rcur = mcc.R
		st.members = append(st.members[:0], bestMembers...)
	}
	s.anchorBuf = bestMembers[:0]
}
