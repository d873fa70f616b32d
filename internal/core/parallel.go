package core

import (
	"math"
	"sync"
	"sync/atomic"

	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
)

// Intra-query parallel circle enumeration. Exact and ExactPlus spend nearly
// all their time in the pair/triple scans — embarrassingly parallel loops
// over a read-only candidate set. When a searcher's parallelism budget is
// ≥ 2, the outer loop is partitioned into contiguous strips claimed
// dynamically by a bounded group of worker searchers (lazily cloned from the
// dispatching searcher, so they share the immutable decomposition but own
// their scratch, peeler and markers).
//
// Workers share the incumbent radius through a CAS-min over the IEEE bit
// pattern (non-negative float64s order identically to their bits), so every
// prune — cc.R ≥ rcur, d[i] > 2·rcur, the Lemma 2 distance filters — stays
// as tight across workers as the serial rcur is within one. Each worker
// additionally tracks its own best (radius, enumeration index) pair; the
// reduction picks the lexicographic minimum, which reproduces the serial
// first-wins acceptance order independent of goroutine scheduling.
//
// Cancellation propagates through the workers' own tick-amortized context
// checks: every worker arms the query context, checks it at strip grabs and
// per middle-loop iteration, and latches at most 16 inner iterations of work
// after the context fires, exactly like the serial loops.

// parMinWidth is the minimum outer-loop width worth fanning out; below it
// goroutine startup dominates the strips.
const parMinWidth = 24

// parStrip is the number of consecutive outer indices one grab claims.
// Small strips keep the load balanced — the inner loops grow quadratically
// with the outer index — while amortizing the atomic fetch-add.
const parStrip = 4

// sharedRadius is the workers' shared incumbent radius. Radii are
// non-negative and +Inf is the top element, so a CAS-min over
// math.Float64bits is a lock-free strict minimum.
type sharedRadius struct{ bits atomic.Uint64 }

func (r *sharedRadius) init(v float64) { r.bits.Store(math.Float64bits(v)) }
func (r *sharedRadius) load() float64  { return math.Float64frombits(r.bits.Load()) }

// lower CAS-lowers the incumbent to v, reporting whether v strictly improved
// it. Ties do not lower, matching the serial acceptance test mcc.R < rcur.
func (r *sharedRadius) lower(v float64) bool {
	nb := math.Float64bits(v)
	for {
		ob := r.bits.Load()
		if nb >= ob {
			return false
		}
		if r.bits.CompareAndSwap(ob, nb) {
			return true
		}
	}
}

// enumOrd is the serial enumeration index of one circle: outer, middle and
// inner loop indices, with h = -1 for the absent third vertex of a pair
// circle (a pair precedes its own triples in serial order, and -1 sorts
// first). The seed incumbent uses ordSeed, which precedes every enumerated
// circle so equal-radius circles lose to it — the serial strict-< behavior.
type enumOrd struct{ i, j, h int32 }

var ordSeed = enumOrd{-1, -1, -1}

func (a enumOrd) before(b enumOrd) bool {
	if a.i != b.i {
		return a.i < b.i
	}
	if a.j != b.j {
		return a.j < b.j
	}
	return a.h < b.h
}

// parBest is one worker's running winner: the smallest (radius, enumeration
// index) pair among the circles it accepted, with a private copy of the
// community.
type parBest struct {
	r       float64
	ord     enumOrd
	members []graph.V
}

// parWorkersFor returns the enumeration worker group for an outer loop of
// the given width, or nil when the scan should run serially (budget < 2, or
// the loop is too narrow to pay for the fan-out). Workers are cloned lazily
// and cached; a cached worker whose graph pointer went stale (snapshot
// republication rebinding the parent via AdoptFrom) is rebound the same way,
// or re-cloned when the vertex count changed.
func (s *Searcher) parWorkersFor(width int) []*Searcher {
	n := s.parallel
	if n < 2 || width < parMinWidth {
		return nil
	}
	if maxStrips := (width + parStrip - 1) / parStrip; n > maxStrips {
		n = maxStrips
	}
	for len(s.parWorkers) < n {
		s.parWorkers = append(s.parWorkers, s.Clone())
	}
	ws := s.parWorkers[:n]
	for i, w := range ws {
		if w.g != s.g {
			if w.g.NumVertices() != s.g.NumVertices() {
				w = s.Clone()
				ws[i] = w
			} else {
				w.AdoptFrom(s)
			}
		} else {
			w.cores = s.cores
			w.truss = s.truss
		}
	}
	return ws
}

// prepPar arms one worker for a scan: fresh per-query state under the
// parent's armed context, and the parent's working set — grid and, for a
// cached k-core query, position CSR — which indexWorkingSet finished before
// the scan began and nothing writes during it. The peel's scratch is the
// worker's own.
func (s *Searcher) prepPar(w *Searcher) {
	w.begin(s.qctx)
	w.wsFrom = &s.ws
}

// joinPar absorbs the workers' counters and cancellation latches into the
// parent and drops the borrowed working set.
func (s *Searcher) joinPar(ws []*Searcher) {
	for _, w := range ws {
		s.stats.CirclesExamined += w.stats.CirclesExamined
		s.stats.FeasibilityChecks += w.stats.FeasibilityChecks
		if s.ctxErr == nil && w.ctxErr != nil {
			s.ctxErr = w.ctxErr
		}
		w.wsFrom = nil
		w.qctx = nil
	}
}

// reducePar picks the winner: the lexicographically smallest (radius,
// enumeration index) over every worker's best. ok is false when nothing
// strictly improved on the seed radius, in which case the caller keeps the
// seed incumbent — again the serial strict-< behavior.
func reducePar(bests []parBest, seed float64) (float64, []graph.V, bool) {
	win := -1
	for i := range bests {
		b := &bests[i]
		if b.members == nil {
			continue
		}
		if win < 0 || b.r < bests[win].r || (b.r == bests[win].r && b.ord.before(bests[win].ord)) {
			win = i
		}
	}
	if win < 0 || bests[win].r >= seed {
		return 0, nil, false
	}
	return bests[win].r, bests[win].members, true
}

// tryCirclePar is Exact's tryCircle against the shared incumbent: cut the
// circle from the parent's working set, peel with the worker's private
// scratch, publish improvements through the CAS-min, and track the worker's
// own (radius, order) best for the deterministic reduction. Acceptance into the local best is lexicographic —
// a radius tie with a smaller enumeration index still updates — so the
// reduction sees the order-minimal achiever of the final radius no matter
// which worker's CAS landed first.
func (w *Searcher) tryCirclePar(cc geom.Circle, ord enumOrd, qLoc geom.Point, q graph.V, k int, rsh *sharedRadius, b *parBest) {
	w.stats.CirclesExamined++
	if cc.R >= rsh.load() || !cc.Contains(qLoc) {
		return
	}
	// Last boundary before the expensive member gather + peel, as in serial.
	if w.canceled() {
		return
	}
	c := w.circleFeasible(cc, q, k, nil)
	if c == nil {
		return
	}
	mcc := w.mccOf(c)
	rsh.lower(mcc.R)
	if mcc.R < b.r || (mcc.R == b.r && ord.before(b.ord)) {
		b.r = mcc.R
		b.ord = ord
		b.members = append(b.members[:0], c...)
	}
}

// scanPar is the strip-claiming driver both parallel scans run on: the
// outer index range [first, n) is cut into strips of parStrip claimed
// dynamically by ws, and each worker runs strip on the ones it claims until
// the range is exhausted, its context check fires, or strip returns false
// (the worker latched a cancellation, or nothing later in the range can
// beat the incumbent). seed is the incumbent radius going in; the return
// mirrors reducePar. The parent's stats and cancellation latch absorb the
// workers' on return; the winning member slice is owned by the winning
// worker and must be copied before the next query.
func (s *Searcher) scanPar(ws []*Searcher, first, n int, seed float64, strip func(w *Searcher, lo, hi int, rsh *sharedRadius, b *parBest) bool) (float64, []graph.V, bool) {
	var rsh sharedRadius
	rsh.init(seed)
	var next atomic.Int64
	next.Store(int64(first))
	bests := make([]parBest, len(ws))
	var wg sync.WaitGroup
	for wi, w := range ws {
		s.prepPar(w)
		bests[wi].r = math.Inf(1)
		wg.Add(1)
		go func(w *Searcher, b *parBest) {
			defer wg.Done()
			for !w.canceled() {
				lo := int(next.Add(parStrip)) - parStrip
				if lo >= n || !strip(w, lo, min(lo+parStrip, n), &rsh, b) {
					return
				}
			}
		}(w, &bests[wi])
	}
	wg.Wait()
	s.joinPar(ws)
	return reducePar(bests, seed)
}

// exactScanPar runs Exact's pair/triple scan (exact.go) across ws, strips of
// the outer index claimed from i = 2, where the serial loop starts.
func (s *Searcher) exactScanPar(ws []*Searcher, X []graph.V, qLoc geom.Point, q graph.V, k int, seed float64) (float64, []graph.V, bool) {
	return s.scanPar(ws, 2, len(X), seed, func(w *Searcher, lo, hi int, rsh *sharedRadius, b *parBest) bool {
		for i := lo; i < hi; i++ {
			pi := s.g.Loc(X[i])
			if qLoc.Dist(pi) > 2*rsh.load() {
				// The distance from q ascends with i and the shared
				// incumbent only shrinks, so no later strip can pass
				// either (Algorithm 1, line 13).
				return false
			}
			for j := 0; j < i; j++ {
				if w.canceled() {
					return false
				}
				pj := s.g.Loc(X[j])
				rc := rsh.load()
				if pj.Dist(pi) <= 2*rc {
					w.tryCirclePar(geom.CircleFrom2(pj, pi), enumOrd{int32(i), int32(j), -1}, qLoc, q, k, rsh, b)
				}
				for h := j + 1; h < i; h++ {
					if w.canceledTick() {
						return false
					}
					ph := s.g.Loc(X[h])
					rc = rsh.load()
					// Lemma 2 filters against the shared incumbent.
					if pj.Dist(ph) > 2*rc || ph.Dist(pi) > 2*rc || pj.Dist(pi) > 2*rc {
						continue
					}
					w.tryCirclePar(geom.CircleFrom3(pj, ph, pi), enumOrd{int32(i), int32(j), int32(h)}, qLoc, q, k, rsh, b)
				}
			}
		}
		return true
	})
}

// exactPlusScanPar runs ExactPlus's F1 pair/triple scan (exactplus.go)
// across ws, strips of the first fixed-vertex index claimed dynamically.
// rMinus is the fixed annulus inner radius of the d12 filter (the 2·rcur
// upper bound reads the shared incumbent).
func (s *Searcher) exactPlusScanPar(ws []*Searcher, f1 []graph.V, rMinus float64, qLoc geom.Point, q graph.V, k int, seed float64) (float64, []graph.V, bool) {
	return s.scanPar(ws, 0, len(f1), seed, func(w *Searcher, lo, hi int, rsh *sharedRadius, b *parBest) bool {
		for i1 := lo; i1 < hi; i1++ {
			p1 := s.g.Loc(f1[i1])
			for i2 := i1 + 1; i2 < len(f1); i2++ {
				if w.canceled() {
					return false
				}
				p2 := s.g.Loc(f1[i2])
				d12 := p1.Dist(p2)
				// Algorithm 5 distance window, upper bound shared.
				if d12 < sqrt3*rMinus-geom.Eps || d12 > 2*rsh.load()+geom.Eps {
					continue
				}
				w.tryCirclePar(geom.CircleFrom2(p1, p2), enumOrd{int32(i1), int32(i2), -1}, qLoc, q, k, rsh, b)
				for i3 := 0; i3 < len(f1); i3++ {
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
					w.tryCirclePar(geom.CircleFrom3(p1, p2, p3), enumOrd{int32(i1), int32(i2), int32(i3)}, qLoc, q, k, rsh, b)
				}
			}
		}
		return true
	})
}
