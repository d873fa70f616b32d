package core

import (
	"math"
	"sync"
	"sync/atomic"

	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
)

// The circle scan. Exact and ExactPlus spend nearly all their time in their
// pair/triple scans — loops over a read-only working set whose outer
// iterations are independent. Each algorithm writes its scan once, as a body
// over a range of outer indices run by one searcher, and scanPar runs it in
// one of two ways:
//
//   - inline: the dispatching searcher runs the body once over the whole
//     range. This is the scan whenever fewer than two workers are granted or
//     the loop is narrower than parMinWidth, and it is the serial scan outright
//     — the same circles, the same feasibility checks and the same context
//     checks in the same order.
//   - in strips: the range is cut into contiguous strips claimed dynamically
//     by a bounded group of worker searchers (lazily cloned from the
//     dispatching searcher and rebound to it with AdoptFrom, so they share the
//     immutable decomposition and its working set but own their scratch,
//     peeler and markers).
//
// The grant is one rule for every caller: the searcher's budget
// (SetParallelism) divided by the queries running in the process
// (queriesInFlight, counted by run), floor 1 — a lone Exact on an idle
// process gets the whole budget, a saturated process runs every scan inline.
//
// Workers share the incumbent radius through a CAS-min over the IEEE bit
// pattern (non-negative float64s order identically to their bits), so every
// prune — cc.R ≥ rcur, d[i] > 2·rcur, the Lemma 2 distance filters — stays as
// tight across workers as it is within one. Each runner also keeps its own
// best (radius, enumeration index) pair; the reduction picks the
// lexicographic minimum, which reproduces the inline scan's first-wins
// acceptance order independent of goroutine scheduling.
//
// Cancellation propagates through the runners' own tick-amortized context
// checks: every worker arms the query context, checks it at strip grabs and
// per middle-loop iteration, and latches at most 16 inner iterations of work
// after the context fires, exactly like the inline scan.

// parMinWidth is the minimum outer-loop width worth fanning out; below it
// goroutine startup dominates the strips.
const parMinWidth = 24

// parStrip is the number of consecutive outer indices one grab claims.
// Small strips keep the load balanced — the inner loops grow quadratically
// with the outer index — while amortizing the atomic fetch-add.
const parStrip = 4

// queriesInFlight counts the queries inside Searcher.run across the process.
// A scan divides its searcher's parallelism budget by it. It is process-wide
// because the CPUs a scan's workers compete for are: every searcher, pooled
// or request-private, shares them.
var queriesInFlight atomic.Int64

// sharedRadius is the incumbent radius a scan's runners prune against.
// Radii are non-negative and +Inf is the top element, so a CAS-min over
// math.Float64bits is a lock-free strict minimum.
type sharedRadius struct{ bits atomic.Uint64 }

func (r *sharedRadius) init(v float64) { r.bits.Store(math.Float64bits(v)) }
func (r *sharedRadius) load() float64  { return math.Float64frombits(r.bits.Load()) }

// lower CAS-lowers the incumbent to v. Ties do not lower, matching the
// strict-< acceptance of a better circle.
func (r *sharedRadius) lower(v float64) {
	nb := math.Float64bits(v)
	for {
		ob := r.bits.Load()
		if nb >= ob || r.bits.CompareAndSwap(ob, nb) {
			return
		}
	}
}

// enumOrd is the enumeration index of one circle in the inline scan: outer,
// middle and inner loop indices, with h = -1 for the absent third vertex of
// a pair circle (a pair precedes its own triples, and -1 sorts first). The
// incumbent a scan starts from has ordSeed, which precedes every enumerated
// circle, so an equal-radius circle never displaces it.
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

// parBest is one runner's incumbent: the smallest (radius, enumeration index)
// pair among the circles it accepted, with its own copy of the community.
type parBest struct {
	r       float64
	ord     enumOrd
	members []graph.V
}

// beatenBy reports whether a circle of radius r at index ord displaces b.
func (b *parBest) beatenBy(r float64, ord enumOrd) bool {
	return r < b.r || (r == b.r && ord.before(b.ord))
}

// circleScan is what one scan's runners share: the query and the incumbent
// radius.
type circleScan struct {
	r    sharedRadius
	qLoc geom.Point
	q    graph.V
	k    int
}

// newScan starts a scan for (q, k) from an incumbent of radius r.
func (s *Searcher) newScan(q graph.V, k int, r float64) *circleScan {
	sc := &circleScan{qLoc: s.g.Loc(q), q: q, k: k}
	sc.r.init(r)
	return sc
}

// tryCircle tests one fixed circle, at enumeration index ord, on the runner
// w: when the circle holds a feasible community whose own MCC is smaller
// than the incumbent, the shared radius drops to it and, if it beats b's
// (radius, index), b keeps the community.
func (w *Searcher) tryCircle(sc *circleScan, cc geom.Circle, ord enumOrd, b *parBest) {
	w.stats.CirclesExamined++
	// The community contains q, so its MCC must cover q's location.
	if cc.R >= sc.r.load() || !cc.Contains(sc.qLoc) {
		return
	}
	// Last boundary before the expensive member gather + peel: bounds
	// post-cancellation work to the feasibility check already in flight.
	if w.canceled() {
		return
	}
	c := w.circleFeasible(cc, sc.q, sc.k, nil)
	if c == nil {
		return
	}
	mcc := w.mccOf(c)
	sc.r.lower(mcc.R)
	if b.beatenBy(mcc.R, ord) {
		b.r, b.ord = mcc.R, ord
		b.members = append(b.members[:0], c...)
	}
}

// scanBody is one algorithm's scan over the outer indices [lo, hi), run by w
// into w's incumbent b. It returns false once nothing later in the range
// can beat the incumbent, or when w latched a cancellation.
type scanBody func(w *Searcher, lo, hi int, b *parBest) bool

// scanPar runs body over the outer index range [first, n) and leaves in
// best, which comes in holding the incumbent, the lexicographically smallest
// (radius, enumeration index) circle any runner accepted. The workers'
// counters and cancellation latch are absorbed into s's.
func (s *Searcher) scanPar(sc *circleScan, first, n int, best *parBest, body scanBody) {
	ws := s.parWorkersFor(n - first)
	if ws == nil {
		s.stats.Workers = 1
		body(s, first, n, best)
		return
	}
	s.stats.Workers = len(ws)
	var next atomic.Int64
	next.Store(int64(first))
	bests := make([]parBest, len(ws))
	var wg sync.WaitGroup
	for wi, w := range ws {
		// A worker runs under the query's context and cuts its circles from
		// s's working set, which nothing writes during the scan.
		w.begin(s.qctx)
		w.wsFrom = &s.ws
		bests[wi] = parBest{r: best.r, ord: best.ord}
		wg.Add(1)
		go func(w *Searcher, b *parBest) {
			defer wg.Done()
			for !w.canceled() {
				lo := int(next.Add(parStrip)) - parStrip
				if lo >= n || !body(w, lo, min(lo+parStrip, n), b) {
					return
				}
			}
		}(w, &bests[wi])
	}
	wg.Wait()
	for wi, w := range ws {
		s.stats.CirclesExamined += w.stats.CirclesExamined
		s.stats.FeasibilityChecks += w.stats.FeasibilityChecks
		if s.ctxErr == nil && w.ctxErr != nil {
			s.ctxErr = w.ctxErr
		}
		w.wsFrom = nil
		w.qctx = nil
		if b := &bests[wi]; b.members != nil && best.beatenBy(b.r, b.ord) {
			best.r, best.ord = b.r, b.ord
			best.members = append(best.members[:0], b.members...)
		}
	}
}

// parWorkersFor returns the worker group for an outer loop of the given
// width, or nil when the scan runs inline: fewer than two workers granted,
// or a loop too narrow to pay for the fan-out. Workers are cloned lazily,
// cached, and rebound to s with AdoptFrom.
func (s *Searcher) parWorkersFor(width int) []*Searcher {
	n := s.parallel / max(1, int(queriesInFlight.Load()))
	if n < 2 || width < parMinWidth {
		return nil
	}
	n = min(n, (width+parStrip-1)/parStrip)
	for len(s.parWorkers) < n {
		s.parWorkers = append(s.parWorkers, s.Clone())
	}
	ws := s.parWorkers[:n]
	for _, w := range ws {
		w.AdoptFrom(s)
	}
	return ws
}
