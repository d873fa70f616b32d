package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
)

// spreadClique is a clique of n vertices at uniform random locations in the
// unit square. With a high k the minimum feasible circle must cover k+1
// scattered points, so pruning bites late and the enumeration stays wide —
// the shape that engages the parallel strips and runs long enough to cancel
// mid-scan (tight clusters prune almost immediately off the seeded MCC).
func spreadClique(seed int64, n int) *graph.Graph {
	rnd := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetLoc(graph.V(v), geom.Point{X: rnd.Float64(), Y: rnd.Float64()})
		for j := 0; j < v; j++ {
			b.AddEdge(graph.V(v), graph.V(j))
		}
	}
	return b.Build()
}

// sameMembersList reports member-slice equality (both ascending by contract).
func sameMembersList(a, b []graph.V) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// SetProcs sets GOMAXPROCS to n for the rest of the test and restores it in
// t.Cleanup. A circle scan's worker count is GOMAXPROCS over the queries in
// flight, so on an otherwise idle process this picks the scan's fan-out.
// Exported for the external test package.
func SetProcs(t testing.TB, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// diffResults fails the test unless the parallel result is byte-identical to
// the serial one: same members, bitwise-equal MCC and Delta.
func diffResults(t *testing.T, label string, serial, par *Result) {
	t.Helper()
	if !sameMembersList(serial.Members, par.Members) {
		t.Fatalf("%s: members diverge: serial %v, parallel %v", label, serial.Members, par.Members)
	}
	if serial.MCC != par.MCC {
		t.Fatalf("%s: MCC diverges: serial %+v, parallel %+v", label, serial.MCC, par.MCC)
	}
	if serial.Delta != par.Delta {
		t.Fatalf("%s: Delta diverges: serial %v, parallel %v", label, serial.Delta, par.Delta)
	}
}

// TestParallelExactMatchesSerial pins the scan's determinism guarantee: the
// strip-parallel Exact returns byte-identical results to the inline scan at
// GOMAXPROCS 1 at every worker count, and a fresh searcher at GOMAXPROCS 1
// runs that inline scan outright (equal work counters included).
func TestParallelExactMatchesSerial(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g := clusteredGraph(seed, 2, 32, 20)
		serial := NewSearcher(g)
		ps := NewSearcher(g)
		rnd := rand.New(rand.NewSource(seed))
		engaged := false
		for _, k := range []int{4, 8} {
			for qi := 0; qi < 3; qi++ {
				q := graph.V(rnd.Intn(g.NumVertices()))
				SetProcs(t, 1)
				dropAnswers(serial)
				sres, serr := serial.Exact(q, k)
				for _, workers := range []int{1, 2, 8} {
					SetProcs(t, workers)
					dropAnswers(ps) // scan again, not the last worker count's answer
					pres, perr := ps.Exact(q, k)
					if (serr == nil) != (perr == nil) {
						t.Fatalf("seed %d q=%d k=%d workers=%d: error diverges: serial %v, parallel %v",
							seed, q, k, workers, serr, perr)
					}
					if serr != nil {
						if !errors.Is(perr, serr) && perr.Error() != serr.Error() {
							t.Fatalf("seed %d q=%d k=%d workers=%d: different errors: %v vs %v",
								seed, q, k, workers, serr, perr)
						}
						continue
					}
					label := "exact"
					diffResults(t, label, sres, pres)
					if pres.Stats.CirclesExamined <= 0 {
						t.Fatalf("seed %d q=%d k=%d workers=%d: no circles examined", seed, q, k, workers)
					}
					if pres.Stats.Workers >= 2 {
						engaged = true
					}
					if workers == 1 {
						// One processor runs inline, like the serial
						// searcher: the full work counters must match,
						// not just results.
						if pres.Stats.CirclesExamined != sres.Stats.CirclesExamined ||
							pres.Stats.FeasibilityChecks != sres.Stats.FeasibilityChecks {
							t.Fatalf("seed %d q=%d k=%d workers=1: counters diverge from the serial searcher: %+v vs %+v",
								seed, q, k, pres.Stats, sres.Stats)
						}
					}
				}
				if serr == nil {
					validateCommunity(t, g, sres, q, k)
				}
			}
		}
		if !engaged {
			t.Fatalf("seed %d: parallel path never engaged (candidate sets too narrow for parMinWidth=%d)",
				seed, parMinWidth)
		}
	}
}

// TestParallelExactPlusMatchesSerial is the same differential for the
// Algorithm 5 annulus scan.
func TestParallelExactPlusMatchesSerial(t *testing.T) {
	engaged := false
	for seed := int64(1); seed <= 3; seed++ {
		g := clusteredGraph(seed, 2, 32, 20)
		serial := NewSearcher(g)
		ps := NewSearcher(g)
		rnd := rand.New(rand.NewSource(seed))
		for _, k := range []int{4, 8} {
			for qi := 0; qi < 3; qi++ {
				q := graph.V(rnd.Intn(g.NumVertices()))
				// A loose εA keeps the annulus filter set F1 wide enough for
				// the strips to engage on this small fixture.
				SetProcs(t, 1)
				sres, serr := serial.ExactPlus(q, k, 0.5)
				for _, workers := range []int{1, 2, 8} {
					SetProcs(t, workers)
					pres, perr := ps.ExactPlus(q, k, 0.5)
					if (serr == nil) != (perr == nil) {
						t.Fatalf("seed %d q=%d k=%d workers=%d: error diverges: serial %v, parallel %v",
							seed, q, k, workers, serr, perr)
					}
					if serr != nil {
						continue
					}
					diffResults(t, "exact+", sres, pres)
					if pres.Stats.Workers >= 2 {
						engaged = true
					}
				}
			}
		}
	}
	// The clustered fixtures may legitimately produce thin F1 sets (serial
	// fallback); a spread clique guarantees a wide annulus so the parallel
	// scan provably runs at least once.
	g := spreadClique(5, 64)
	serial := NewSearcher(g)
	ps := NewSearcher(g)
	for _, k := range []int{20, 40} {
		SetProcs(t, 1)
		sres, serr := serial.ExactPlus(0, k, 0.5)
		for _, workers := range []int{2, 8} {
			SetProcs(t, workers)
			pres, perr := ps.ExactPlus(0, k, 0.5)
			if (serr == nil) != (perr == nil) {
				t.Fatalf("spread clique k=%d workers=%d: error diverges: %v vs %v", k, workers, serr, perr)
			}
			if serr == nil {
				diffResults(t, "exact+ spread", sres, pres)
				if pres.Stats.Workers >= 2 {
					engaged = true
				}
			}
		}
	}
	if !engaged {
		t.Fatalf("parallel exact+ path never engaged on any fixture (F1 always under parMinWidth=%d)", parMinWidth)
	}
}

// heldCtx parks the query it is given at that query's first context check,
// which happens inside Searcher.run: the query counts as in flight until
// release is closed.
type heldCtx struct {
	context.Context
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (c *heldCtx) Done() <-chan struct{} { return c.release }
func (c *heldCtx) Err() error {
	c.once.Do(func() { close(c.entered) })
	<-c.release
	return nil
}

// TestScanBudgetSharedByQueriesInFlight pins the one budget rule: a scan
// runs on GOMAXPROCS divided by the queries inside run across the process,
// floor 1. With held queries parked in flight, an Exact+ at GOMAXPROCS 4 on
// the spread clique (|F1| = 36, nine strips) scans on 4, 2 and 1 workers,
// and answers what a searcher at GOMAXPROCS 1 does.
func TestScanBudgetSharedByQueriesInFlight(t *testing.T) {
	g := spreadClique(5, 64)
	query := Query{Algo: "exact+", Q: 0, K: 20, EpsA: Float(0.5)}
	SetProcs(t, 1)
	want, err := NewSearcher(g).Search(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	if want.Stats.Workers != 1 {
		t.Fatalf("GOMAXPROCS 1 scanned on %d workers, want 1 (inline)", want.Stats.Workers)
	}
	SetProcs(t, 4)
	for _, held := range []int{0, 1, 3} {
		release := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < held; i++ {
			ctx := &heldCtx{Context: context.Background(), entered: make(chan struct{}), release: release}
			hs := NewSearcher(g)
			wg.Add(1)
			go func() {
				defer wg.Done()
				hs.Search(ctx, query)
			}()
			<-ctx.entered
		}
		s := NewSearcher(g)
		got, err := s.Search(context.Background(), query)
		close(release)
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if w := max(1, 4/(held+1)); got.Stats.Workers != w {
			t.Fatalf("%d queries held in flight: GOMAXPROCS 4 scanned on %d workers, want %d", held, got.Stats.Workers, w)
		}
		diffResults(t, fmt.Sprintf("held=%d", held), want, got)
	}
}

// TestParallelSearchRegistryAgrees runs every registered algorithm through
// the unified Search entry point at GOMAXPROCS 1 and 8, on the same graph:
// algorithms without a parallel path must be untouched, the exact ones
// byte-identical.
func TestParallelSearchRegistryAgrees(t *testing.T) {
	g := clusteredGraph(7, 2, 32, 20)
	serial := NewSearcher(g)
	ps := NewSearcher(g)
	ctx := context.Background()
	for _, spec := range Algorithms() {
		q := Query{Algo: spec.Name, Q: 5, K: 4}
		if spec.Name == "theta" {
			q.Theta = Float(0.1)
		}
		SetProcs(t, 1)
		sres, serr := serial.Search(ctx, q)
		SetProcs(t, 8)
		pres, perr := ps.Search(ctx, q)
		if (serr == nil) != (perr == nil) {
			t.Fatalf("%s: error diverges: serial %v, parallel %v", spec.Name, serr, perr)
		}
		if serr != nil {
			continue
		}
		diffResults(t, spec.Name, sres, pres)
	}
}

// TestParallelExactCancellation fires the context mid-enumeration and checks
// that every worker latches promptly: the post-fire work is bounded by the
// tick amortization, ErrCanceled surfaces, and the searcher answers the next
// query correctly.
func TestParallelExactCancellation(t *testing.T) {
	g := spreadClique(11, 64)
	const q, k = 3, 40
	serial := NewSearcher(g)
	SetProcs(t, 1)
	want, werr := serial.Exact(q, k)
	if werr != nil {
		t.Fatalf("serial baseline: %v", werr)
	}
	// The full scan examines far more circles than the latch bound below, so
	// a passing bound proves the workers actually stopped early.
	if want.Stats.CirclesExamined < 10_000 {
		t.Fatalf("fixture too small to observe mid-run cancellation (%d circles)", want.Stats.CirclesExamined)
	}

	for _, workers := range []int{2, 8} {
		const countdown = 200
		ps := NewSearcher(g)
		SetProcs(t, workers)
		// The shared countdownCtx fake (ctx_test.go) fires after countdown
		// Err consultations — deterministic mid-enumeration cancellation.
		ctx := newCountdown(countdown)
		res, err := ps.Search(ctx, Query{Algo: "exact", Q: q, K: k})
		if res != nil || !errors.Is(err, ErrCanceled) {
			t.Fatalf("workers=%d: want ErrCanceled, got res=%v err=%v", workers, res, err)
		}
		// Every context consult can be preceded by at most one circle plus 16
		// tick-amortized inner iterations; the countdown allows ~200 consults
		// before firing and each worker gets one last latch window.
		bound := 17*(countdown+workers) + 64
		if got := ps.stats.CirclesExamined; got > bound {
			t.Fatalf("workers=%d: %d circles examined after cancellation budget (bound %d)", workers, got, bound)
		}
		// The searcher must be immediately reusable with a clean context.
		res, err = ps.Exact(q, k)
		if err != nil {
			t.Fatalf("workers=%d: query after cancellation failed: %v", workers, err)
		}
		diffResults(t, "post-cancel", want, res)
	}
}
