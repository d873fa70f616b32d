package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
)

// countdownCtx is a context whose Err starts failing after fuse calls. It
// measures exactly what the cancellation contract promises: every Err call
// is one loop-boundary check, so the number of calls after the fuse blows is
// the work an algorithm did after cancellation fired.
type countdownCtx struct {
	fuse  int64
	calls atomic.Int64
	done  chan struct{}
}

func newCountdown(fuse int64) *countdownCtx {
	return &countdownCtx{fuse: fuse, done: make(chan struct{})}
}

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countdownCtx) Done() <-chan struct{}       { return c.done }
func (c *countdownCtx) Value(any) any               { return nil }
func (c *countdownCtx) Err() error {
	if c.calls.Add(1) > c.fuse {
		return context.Canceled
	}
	return nil
}

// ctxTestGraph is one dense 48-vertex community (circulant over a small
// disc), big enough that every algorithm runs many loop iterations at k=4.
func ctxTestGraph() *graph.Graph {
	const n = 48
	rnd := rand.New(rand.NewSource(5))
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		ang := 2 * math.Pi * float64(v) / n
		r := 0.05 + 0.04*rnd.Float64()
		b.SetLoc(graph.V(v), geom.Point{X: 0.5 + r*math.Cos(ang), Y: 0.5 + r*math.Sin(ang)})
		for d := 1; d <= 5; d++ {
			b.AddEdge(graph.V(v), graph.V((v+d)%n))
		}
	}
	return b.Build()
}

// ctxQueries is one query per registered algorithm on ctxTestGraph, so a new
// registry entry is cancellation-tested without being listed here.
func ctxQueries(t *testing.T) []Query {
	t.Helper()
	var qs []Query
	for _, spec := range Algorithms() {
		q := Query{Algo: spec.Name, Q: 0, K: 4}
		for _, p := range spec.Params {
			v := 0.3
			if p.Name == "epsF" {
				v = 0 // AppFast(0): the most binary-search iterations
			}
			if err := q.SetParam(p.Name, v); err != nil {
				t.Fatal(err)
			}
		}
		qs = append(qs, q)
	}
	return qs
}

// TestCtxCancellationBounded fires the context mid-query and asserts that
// Search, for every registered algorithm, (a) returns ErrCanceled wrapping
// the context error, (b) performs at most one further loop-boundary check
// after the firing one — the latch in Searcher.canceled — and (c) leaves the
// searcher reusable. It runs at GOMAXPROCS 1, so the Exact scans run inline
// on the one searcher whose latch it counts (TestParallelExactCancellation
// bounds the latch of every worker of a scan in strips).
func TestCtxCancellationBounded(t *testing.T) {
	SetProcs(t, 1)
	g := ctxTestGraph()
	for _, q := range ctxQueries(t) {
		s := NewSearcher(g)

		// Dry run on a fuse that never blows: counts the algorithm's total
		// loop-boundary checks, proving the canceled run below fires mid-run
		// rather than after completion. θ-SAC has two (before its BFS, before
		// its peel); everything else has many.
		dry := newCountdown(math.MaxInt64)
		want, err := s.Search(dry, q)
		if err != nil {
			t.Fatalf("%s dry run: %v", q.Algo, err)
		}
		total := dry.calls.Load()
		if total < 2 {
			t.Fatalf("%s: only %d loop-boundary checks; no mid-run cancel possible", q.Algo, total)
		}

		// The repeats below run the algorithm again on the warm views, not
		// the dry run's answer from its table.
		dropAnswers(s)
		fuse := total / 2
		cd := newCountdown(fuse)
		res, err := s.Search(cd, q)
		if res != nil || !errors.Is(err, ErrCanceled) {
			t.Fatalf("%s canceled: res=%v err=%v, want ErrCanceled", q.Algo, res, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s canceled: %v does not wrap context.Canceled", q.Algo, err)
		}
		if after := cd.calls.Load() - fuse; after > 1 {
			t.Fatalf("%s: %d loop-boundary checks after the context fired, want ≤ 1", q.Algo, after)
		}

		// The searcher is immediately reusable: the next query must give the
		// dry run's answer, with no residue from the canceled one.
		dropAnswers(s)
		got, err := s.Search(context.Background(), q)
		if err != nil {
			t.Fatalf("%s after cancel: %v", q.Algo, err)
		}
		if !slices.Equal(got.Members, want.Members) || got.MCC != want.MCC || got.Delta != want.Delta {
			t.Fatalf("%s after cancel: answer differs from the one before it", q.Algo)
		}
	}
}

// TestCtxPreCanceled covers the already-dead-context path for every
// algorithm.
func TestCtxPreCanceled(t *testing.T) {
	g := ctxTestGraph()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, q := range ctxQueries(t) {
		s := NewSearcher(g)
		res, err := s.Search(ctx, q)
		if res != nil || !errors.Is(err, ErrCanceled) {
			t.Fatalf("%s pre-canceled: res=%v err=%v", q.Algo, res, err)
		}
	}
}

// TestCtxDeadlineExceededIsWrapped pins the errors.Is contract for
// deadlines, the shape HTTP handlers check.
func TestCtxDeadlineExceededIsWrapped(t *testing.T) {
	g := ctxTestGraph()
	s := NewSearcher(g)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := s.Search(ctx, Query{Algo: "exact", Q: 0, K: 4})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline err = %v, want ErrCanceled wrapping DeadlineExceeded", err)
	}
}

// TestCtxBackgroundUnchanged pins that a context that can never be canceled
// is not armed at all (the nil-Done fast path), and that the convenience
// methods are Search on such a context.
func TestCtxBackgroundUnchanged(t *testing.T) {
	g := ctxTestGraph()
	s := NewSearcher(g)
	res, err := s.Exact(0, 4)
	if err != nil || len(res.Members) == 0 {
		t.Fatalf("Exact: %v %v", res, err)
	}
	if s.qctx != nil {
		t.Fatal("a background context was armed")
	}
	res2, err := s.Search(context.Background(), Query{Algo: "exact", Q: 0, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Members, res2.Members) || res.MCC != res2.MCC || res.Delta != res2.Delta {
		t.Fatalf("Search(Background) diverged from Exact: %v vs %v", res.Members, res2.Members)
	}
}
