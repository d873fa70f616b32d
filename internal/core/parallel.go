package core

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
)

// The circle scan. Exact and ExactPlus spend nearly all their time in their
// pair/triple scans — loops over a read-only working set whose outer
// iterations are independent. Each algorithm writes its scan once, as a body
// run by one searcher over a range of outer indices from a starting
// incumbent, and scanPar runs it in one of two ways:
//
//   - inline: the dispatching searcher runs the body once over the whole
//     range. This is the scan whenever fewer than two workers are granted or
//     the loop is narrower than parMinWidth, and it is the serial scan outright
//     — the same circles, the same feasibility checks and the same context
//     checks in the same order.
//   - in strips: the range is cut into contiguous strips claimed in order by
//     the dispatching searcher and its helpers — workers borrowed from the
//     pool it was drawn from (or, for a searcher no pool handed out, the one
//     it makes for itself on its first such scan) and rebound to it with
//     GetFor, so they share the immutable decomposition and its working set
//     but own their scratch, peeler and markers. They go back to the pool
//     when the scan ends: a helper is a full searcher clone, and the pool's
//     idle cap bounds how many of them outlive the scan.
//
// A run over a range is a function of the range and the incumbent radius it
// starts from: that radius decides which circles it prunes, which it probes
// and which community it keeps. So strips commit in order, each from the
// radius the strips before it left, and what they commit is what the inline
// scan computes. A worker runs a strip speculatively from the radius committed
// when it claimed it; when the strips before it have lowered that radius by
// the time it commits, it runs the strip again from the committed one. The
// answer is therefore the same at every worker count whatever the schedule,
// even where two different communities tie on a bit-equal radius. (A running
// minimum shared across workers would not be: a worker pruned by a later
// strip's find can skip the circle the inline scan accepts and keep the
// other community of the tie.)
//
// The grant is one rule for every caller and has no knob: the machine's
// processors (GOMAXPROCS) divided by the queries running in the process
// (queriesInFlight, counted by run), floor 1 — a lone Exact on an idle
// process gets every processor, a saturated process runs every scan inline.
//
// Cancellation propagates through the runners' own tick-amortized context
// checks: every helper arms the query context, every runner checks it at
// strip grabs and per middle-loop iteration, and latches at most 16 inner
// iterations of work after the context fires, exactly like the inline scan.

// parMinWidth is the minimum outer-loop width worth fanning out; below it
// goroutine startup dominates the strips.
const parMinWidth = 24

// parStrip is the number of consecutive outer indices one grab claims.
// Small strips keep the load balanced — the inner loops grow quadratically
// with the outer index — while amortizing the atomic fetch-add.
const parStrip = 4

// queriesInFlight counts the queries inside Searcher.run across the process.
// A scan divides GOMAXPROCS by it. It is process-wide because the CPUs a
// scan's workers compete for are: every searcher, pooled or request-private,
// shares them.
var queriesInFlight atomic.Int64

// parBest is a run's incumbent: the smallest MCC radius it has accepted and
// that community. A circle must beat r strictly to be probed or accepted.
type parBest struct {
	r       float64
	members []graph.V
}

// circleScan is what one scan's runners share: the query.
type circleScan struct {
	qLoc geom.Point
	q    graph.V
	k    int
}

// newScan starts a scan for (q, k).
func (s *Searcher) newScan(q graph.V, k int) *circleScan {
	return &circleScan{qLoc: s.g.Loc(q), q: q, k: k}
}

// tryCircle tests one fixed circle on the runner w: when the circle holds a
// feasible community whose own MCC is smaller than b's radius, b keeps it.
func (w *Searcher) tryCircle(sc *circleScan, cc geom.Circle, b *parBest) {
	w.stats.CirclesExamined++
	// The community contains q, so its MCC must cover q's location.
	if cc.R >= b.r || !cc.Contains(sc.qLoc) {
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
	if mcc := w.mccOf(c); mcc.R < b.r {
		b.r = mcc.R
		b.members = append(b.members[:0], c...)
	}
}

// scanBody is one algorithm's scan over the outer indices [lo, hi), run by w
// from and into the incumbent b. It returns false once nothing later in the
// range can beat the incumbent, or when w latched a cancellation.
type scanBody func(w *Searcher, lo, hi int, b *parBest) bool

// stripRun is one run of one strip: the radius it started from, what it
// accepted (members nil: nothing) and whether it ended the scan.
type stripRun struct {
	from float64
	best parBest
	stop bool
	ran  bool
}

// scanPar runs body over the outer index range [first, n) and leaves in
// best, which comes in holding the incumbent, what the inline scan would.
// The helpers' counters and cancellation latch are absorbed into s's.
func (s *Searcher) scanPar(sc *circleScan, first, n int, best *parBest, body scanBody) {
	helpers := s.scanHelpers(n - first)
	s.stats.Workers = 1 + len(helpers)
	if len(helpers) == 0 {
		body(s, first, n, best)
		return
	}
	defer s.putHelpers(helpers)
	runs := make([]stripRun, (n-first+parStrip-1)/parStrip)
	run := func(w *Searcher, i int, from float64) stripRun {
		lo := first + i*parStrip
		r := stripRun{from: from, best: parBest{r: from}, ran: true}
		r.stop = !body(w, lo, min(lo+parStrip, n), &r.best)
		return r
	}
	var (
		next      atomic.Int64
		mu        sync.Mutex // guards runs, committed and best
		committed int
		stopped   atomic.Bool
		from      atomic.Uint64 // best.r after the committed strips, as bits
		wg        sync.WaitGroup
	)
	from.Store(math.Float64bits(best.r))
	work := func(w *Searcher) {
		for !w.canceled() && !stopped.Load() {
			i := int(next.Add(1)) - 1
			if i >= len(runs) {
				return
			}
			r := run(w, i, math.Float64frombits(from.Load()))
			mu.Lock()
			runs[i] = r
			for ; committed < len(runs) && runs[committed].ran && !stopped.Load(); committed++ {
				c := &runs[committed]
				if c.from != best.r {
					*c = run(w, committed, best.r)
				}
				if c.best.members != nil {
					best.r = c.best.r
					best.members = append(best.members[:0], c.best.members...)
				}
				if c.stop {
					stopped.Store(true)
				}
			}
			from.Store(math.Float64bits(best.r))
			mu.Unlock()
		}
	}
	for _, h := range helpers {
		// A helper runs under the query's context and cuts its circles from
		// s's working set, which nothing writes during the scan.
		h.begin(s.qctx)
		h.wsFrom = &s.ws
		wg.Add(1)
		go func(h *Searcher) {
			defer wg.Done()
			work(h)
		}(h)
	}
	work(s)
	wg.Wait()
	for _, h := range helpers {
		s.stats.CirclesExamined += h.stats.CirclesExamined
		s.stats.FeasibilityChecks += h.stats.FeasibilityChecks
		if s.ctxErr == nil && h.ctxErr != nil {
			s.ctxErr = h.ctxErr
		}
	}
}

// scanHelpers borrows the helpers of a scan over an outer loop of the given
// width, or returns nil when the scan runs inline: fewer than two workers
// granted, or a loop too narrow to pay for the fan-out. The grant is
// GOMAXPROCS over the queries in flight, capped at one worker per strip; s is
// one of the workers, so it borrows one helper fewer.
func (s *Searcher) scanHelpers(width int) []*Searcher {
	n := runtime.GOMAXPROCS(0) / max(1, int(queriesInFlight.Load()))
	if n < 2 || width < parMinWidth {
		return nil
	}
	n = min(n, (width+parStrip-1)/parStrip)
	if s.pool == nil {
		s.pool = NewPool(s)
	}
	helpers := make([]*Searcher, n-1)
	for i := range helpers {
		helpers[i] = s.pool.GetFor(s)
	}
	return helpers
}

// putHelpers unbinds a scan's helpers from it and returns them to s's pool.
func (s *Searcher) putHelpers(helpers []*Searcher) {
	for _, h := range helpers {
		h.wsFrom = nil
		h.qctx = nil
		s.pool.Put(h)
	}
}
