package snapshot

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"sacsearch/internal/batch"
	"sacsearch/internal/core"
	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
)

// testGraph plants spatial cliques wired with a few long-range edges; every
// vertex has a tight community for k up to 4.
func testGraph() *graph.Graph {
	rnd := rand.New(rand.NewSource(11))
	const nc, cs = 6, 6
	b := graph.NewBuilder(nc * cs)
	for c := 0; c < nc; c++ {
		cx, cy := rnd.Float64(), rnd.Float64()
		for i := 0; i < cs; i++ {
			v := graph.V(c*cs + i)
			b.SetLoc(v, geom.Point{
				X: cx + (rnd.Float64()-0.5)*0.05,
				Y: cy + (rnd.Float64()-0.5)*0.05,
			})
			for j := 0; j < i; j++ {
				b.AddEdge(v, graph.V(c*cs+j))
			}
		}
	}
	b.AddEdge(0, 6)
	b.AddEdge(0, 12)
	return b.Build()
}

func newEngine(t *testing.T) *Engine {
	t.Helper()
	e := New(testGraph(), Options{})
	t.Cleanup(e.Close)
	return e
}

func TestInitialSnapshot(t *testing.T) {
	e := newEngine(t)
	snap := e.Current()
	if snap == nil || snap.Seq() != 1 {
		t.Fatalf("initial snapshot = %+v", snap)
	}
	if !snap.Graph().Frozen() {
		t.Fatal("published graph not frozen")
	}
	if snap.Edges() != snap.Graph().NumEdges() {
		t.Fatalf("edges = %d, graph says %d", snap.Edges(), snap.Graph().NumEdges())
	}
}

// TestReadYourWrites pins the publication contract: once a write returns,
// Current() serves a snapshot that contains it.
func TestReadYourWrites(t *testing.T) {
	e := newEngine(t)
	ctx := context.Background()
	before := e.Current()
	if err := e.CheckIn(ctx, 3, geom.Point{X: 0.9, Y: 0.9}); err != nil {
		t.Fatal(err)
	}
	after := e.Current()
	if after.Seq() <= before.Seq() {
		t.Fatalf("no publication: seq %d -> %d", before.Seq(), after.Seq())
	}
	if loc := after.Graph().Loc(3); loc.X != 0.9 || loc.Y != 0.9 {
		t.Fatalf("check-in not visible: %v", loc)
	}
	// The old snapshot still serves the old state: snapshot isolation.
	if loc := before.Graph().Loc(3); loc.X == 0.9 && loc.Y == 0.9 {
		t.Fatal("old snapshot mutated")
	}

	// No-op writes publish nothing: the previous snapshot already contains
	// the (absent) change, so the sequence must not advance.
	seqBefore := e.Current().Seq()
	if changed, err := e.UpdateEdge(ctx, 0, 6, true); err != nil || changed {
		t.Fatalf("re-insert of present edge: changed=%v err=%v, want no-op", changed, err)
	}
	if got := e.Current().Seq(); got != seqBefore {
		t.Fatalf("no-op edge published a snapshot: seq %d -> %d", seqBefore, got)
	}

	changed, err := e.UpdateEdge(ctx, 0, 18, true)
	if err != nil || !changed {
		t.Fatalf("edge insert: changed=%v err=%v", changed, err)
	}
	if !e.Current().Graph().HasEdge(0, 18) {
		t.Fatal("edge not visible after UpdateEdge returned")
	}
	if before.Graph().HasEdge(0, 18) {
		t.Fatal("old snapshot grew an edge")
	}
	if got := e.Current().TopoEpoch(); got == before.TopoEpoch() {
		t.Fatal("topology epoch did not advance")
	}
}

// TestValidation covers the write-side input checks.
func TestValidation(t *testing.T) {
	e := newEngine(t)
	ctx := context.Background()
	if err := e.CheckIn(ctx, 9999, geom.Point{}); err == nil {
		t.Fatal("out-of-range check-in accepted")
	}
	if err := e.CheckIn(ctx, 1, geom.Point{X: math.Inf(1), Y: 0}); err == nil {
		t.Fatal("non-finite check-in accepted")
	}
	if _, err := e.UpdateEdge(ctx, 0, 9999, true); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if changed, err := e.UpdateEdge(ctx, 2, 2, true); err != nil || changed {
		t.Fatalf("self-loop: changed=%v err=%v (want no-op)", changed, err)
	}
}

// TestApplyIsAllOrNothingAtTheDoor: one bad write fails the whole call
// before any of it is queued, and a good call reports each write's change in
// order and publishes once.
func TestApplyIsAllOrNothingAtTheDoor(t *testing.T) {
	e := newEngine(t)
	ctx := context.Background()
	before := e.Current()
	good := graph.Write{Kind: graph.WriteCheckin, V: 3, Loc: geom.Point{X: 0.9, Y: 0.9}}
	for _, bad := range []graph.Write{
		{Kind: graph.WriteCheckin, V: 36},
		{Kind: graph.WriteCheckin, V: 4, Loc: geom.Point{X: math.NaN()}},
		{Kind: graph.WriteAddEdge, V: 0, W: -1},
		{V: 1, W: 2},
	} {
		if _, err := e.Apply(ctx, []graph.Write{good, bad}); err == nil {
			t.Fatalf("Apply accepted %+v", bad)
		}
	}
	if e.Current() != before || e.Applied() != 0 {
		t.Fatal("a refused call reached the graph")
	}
	changed, err := e.Apply(ctx, []graph.Write{
		good,
		{Kind: graph.WriteAddEdge, V: 0, W: 6}, // present: a no-op
		{Kind: graph.WriteAddEdge, V: 0, W: 18},
		{Kind: graph.WriteRemoveEdge, V: 18, W: 0},
	})
	if err != nil || !slices.Equal(changed, []bool{true, false, true, true}) {
		t.Fatalf("Apply = %v, %v", changed, err)
	}
	if got := e.Published(); got != 2 {
		t.Fatalf("one four-write call published %d snapshots after the initial one", got-1)
	}
	if changed, err := e.Apply(ctx, nil); err != nil || len(changed) != 0 {
		t.Fatalf("empty Apply = %v, %v", changed, err)
	}
}

func TestCloseFailsPendingWrites(t *testing.T) {
	e := New(testGraph(), Options{})
	e.Close()
	if err := e.CheckIn(context.Background(), 1, geom.Point{X: 0.1, Y: 0.1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close: %v, want ErrClosed", err)
	}
	// The last snapshot remains readable.
	snap := e.Current()
	w := snap.Get()
	defer snap.Put(w)
	if _, err := w.AppInc(0, 4); err != nil {
		t.Fatalf("query after close: %v", err)
	}
	e.Close() // idempotent
}

// runAll answers one query with all five algorithms plus θ-SAC on s.
func runAll(t *testing.T, s *core.Searcher, q graph.V, k int) map[string]*core.Result {
	t.Helper()
	out := make(map[string]*core.Result, 6)
	type algo struct {
		name string
		run  func() (*core.Result, error)
	}
	for _, a := range []algo{
		{"exact", func() (*core.Result, error) { return s.Exact(q, k) }},
		{"exact+", func() (*core.Result, error) { return s.ExactPlus(q, k, 1e-3) }},
		{"appinc", func() (*core.Result, error) { return s.AppInc(q, k) }},
		{"appfast", func() (*core.Result, error) { return s.AppFast(q, k, 0.5) }},
		{"appacc", func() (*core.Result, error) { return s.AppAcc(q, k, 0.5) }},
		{"theta", func() (*core.Result, error) { return s.ThetaSAC(q, k, 0.2) }},
	} {
		res, err := a.run()
		if err != nil {
			if errors.Is(err, core.ErrNoCommunity) {
				out[a.name] = nil
				continue
			}
			t.Errorf("%s(%d,%d): %v", a.name, q, k, err)
			continue
		}
		out[a.name] = res
	}
	return out
}

func sameResult(a, b *core.Result) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if len(a.Members) != len(b.Members) {
		return false
	}
	for i := range a.Members {
		if a.Members[i] != b.Members[i] {
			return false
		}
	}
	return a.MCC == b.MCC
}

// TestDifferentialUnderChurn is the snapshot-isolation differential: while
// writers churn check-ins and edges through the engine, readers pin
// snapshots and answer queries on pooled (cached, rebound) workers; every
// answer must equal what a fresh single-threaded searcher computes over the
// same frozen graph. Run with -race, this also proves readers never touch
// the writer's mutable state.
func TestDifferentialUnderChurn(t *testing.T) {
	e := newEngine(t)
	ctx := context.Background()
	const n = 36

	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})

	// Writer traffic: check-ins wander vertices, edges toggle between
	// cliques.
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		rnd := rand.New(rand.NewSource(23))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%3 == 0 {
				u := graph.V(rnd.Intn(6))
				v := graph.V(18 + rnd.Intn(6))
				if _, err := e.UpdateEdge(ctx, u, v, rnd.Intn(2) == 0); err != nil {
					t.Errorf("edge churn: %v", err)
					return
				}
			} else {
				v := graph.V(rnd.Intn(n))
				p := geom.Point{X: rnd.Float64(), Y: rnd.Float64()}
				if err := e.CheckIn(ctx, v, p); err != nil {
					t.Errorf("check-in churn: %v", err)
					return
				}
			}
		}
	}()

	// Reader traffic: pin a snapshot, query it through the pooled worker,
	// and differentially re-answer on a cold searcher over the same frozen
	// graph.
	for r := 0; r < 4; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			rnd := rand.New(rand.NewSource(int64(100 + r)))
			for i := 0; i < 8; i++ {
				snap := e.Current()
				q := graph.V(rnd.Intn(n))
				k := 2 + rnd.Intn(3)

				w := snap.Get()
				got := runAll(t, w, q, k)
				snap.Put(w)

				cold := core.NewSearcher(snap.Graph())
				want := runAll(t, cold, q, k)

				for name, res := range want {
					if !sameResult(got[name], res) {
						t.Errorf("reader %d: %s(%d,%d) snapshot-served %v != locked %v (seq %d)",
							r, name, q, k, members(got[name]), members(res), snap.Seq())
					}
				}
			}
		}(r)
	}

	// Readers run bounded work; the writer churns until they finish.
	readerWG.Wait()
	close(stop)
	writerWG.Wait()
}

func members(r *core.Result) []graph.V {
	if r == nil {
		return nil
	}
	return r.Members
}

// TestBatchPinnedToSnapshot runs a whole batch against one pinned snapshot
// while the writer churns; every item must reflect that snapshot alone.
func TestBatchPinnedToSnapshot(t *testing.T) {
	e := newEngine(t)
	ctx := context.Background()
	snap := e.Current()

	// Churn AFTER pinning: the batch must not see any of it.
	for i := 0; i < 10; i++ {
		if err := e.CheckIn(ctx, graph.V(i), geom.Point{X: 0.5, Y: 0.5}); err != nil {
			t.Fatal(err)
		}
	}

	queries := batch.Workload([]graph.V{1, 7, 13, 1}, 4)
	items := batch.Run(ctx, snap, queries, batch.Options{Workers: 2})
	cold := core.NewSearcher(snap.Graph())
	for _, it := range items {
		if it.Err != nil {
			t.Fatalf("batch item %v: %v", it.Query, it.Err)
		}
		want, err := cold.AppFast(it.Q, it.K, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(it.Result, want) {
			t.Fatalf("batch item %v: %v != pinned-state answer %v", it.Query, it.Result.Members, want.Members)
		}
	}
}

// TestPublicationBatching checks that a burst of writes publishes far fewer
// snapshots than events (the amortization the writer loop exists for).
func TestPublicationBatching(t *testing.T) {
	e := newEngine(t)
	ctx := context.Background()
	const writers, each = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := e.CheckIn(ctx, graph.V((w*each+i)%36), geom.Point{X: 0.1, Y: 0.2}); err != nil {
					t.Errorf("check-in: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	applied, published := e.Applied(), e.Published()
	if applied != writers*each {
		t.Fatalf("applied = %d, want %d", applied, writers*each)
	}
	// At most one publication per event plus the initial snapshot; whether
	// concurrent events actually coalesce depends on scheduling, so only the
	// upper bound is deterministic.
	if published > applied+1 {
		t.Fatalf("published %d snapshots for %d events", published, applied)
	}
	t.Logf("coalescing: %d events over %d publications", applied, published)
}

// TestPersistHookOrdering pins the durability contract: the hook sees every
// state-changing event (and only those) before the snapshot containing it is
// published, and published snapshots carry the hook's sequence.
func TestPersistHookOrdering(t *testing.T) {
	var mu sync.Mutex
	var logged []graph.Write
	var seq uint64
	e := New(testGraph(), Options{
		InitialSeq: 100,
		Persist: func(batch []graph.Write) (uint64, error) {
			mu.Lock()
			defer mu.Unlock()
			logged = append(logged, batch...)
			seq += uint64(len(batch))
			return 100 + seq, nil
		},
	})
	defer e.Close()
	ctx := context.Background()

	if got := e.Current().WalSeq(); got != 100 {
		t.Fatalf("initial WalSeq = %d, want InitialSeq 100", got)
	}
	if err := e.CheckIn(ctx, 2, geom.Point{X: 0.3, Y: 0.4}); err != nil {
		t.Fatal(err)
	}
	// Read-your-writes now implies durable-on-ack: the snapshot visible
	// after CheckIn returned must carry a WalSeq covering the event.
	if got := e.Current().WalSeq(); got != 101 {
		t.Fatalf("WalSeq after check-in = %d, want 101", got)
	}
	// A no-op edge toggle must not be logged.
	if changed, err := e.UpdateEdge(ctx, 0, 6, true); err != nil || changed {
		t.Fatalf("no-op insert: changed=%v err=%v", changed, err)
	}
	// A rejected edge must not be logged either.
	if _, err := e.UpdateEdge(ctx, 0, 9999, true); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if changed, err := e.UpdateEdge(ctx, 0, 18, true); err != nil || !changed {
		t.Fatalf("real insert: changed=%v err=%v", changed, err)
	}
	if got := e.Current().WalSeq(); got != 102 {
		t.Fatalf("WalSeq after edge = %d, want 102", got)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(logged) != 2 {
		t.Fatalf("logged %d events, want 2: %+v", len(logged), logged)
	}
	if want := (graph.Write{Kind: graph.WriteCheckin, V: 2, Loc: geom.Point{X: 0.3, Y: 0.4}}); logged[0] != want {
		t.Fatalf("logged[0] = %+v, want %+v", logged[0], want)
	}
	if want := (graph.Write{Kind: graph.WriteAddEdge, V: 0, W: 18}); logged[1] != want {
		t.Fatalf("logged[1] = %+v, want %+v", logged[1], want)
	}
}

// TestPersistFailureTurnsEngineReadOnly: a failed group commit must fail the
// writes in that batch, keep the failed state unpublished, and refuse all
// later writes — a non-durable write must never look committed.
func TestPersistFailureTurnsEngineReadOnly(t *testing.T) {
	fail := errors.New("disk on fire")
	calls := 0
	e := New(testGraph(), Options{
		Persist: func(batch []graph.Write) (uint64, error) {
			calls++
			if calls > 1 {
				return 0, fail
			}
			return uint64(len(batch)), nil
		},
	})
	defer e.Close()
	ctx := context.Background()

	if err := e.CheckIn(ctx, 1, geom.Point{X: 0.5, Y: 0.5}); err != nil {
		t.Fatalf("first (durable) write: %v", err)
	}
	before := e.Current()
	err := e.CheckIn(ctx, 3, geom.Point{X: 0.7, Y: 0.7})
	if err == nil || !errors.Is(err, fail) {
		t.Fatalf("write after persist failure: %v, want wrapped %v", err, fail)
	}
	// The failed write must not have been published.
	after := e.Current()
	if after.Seq() != before.Seq() {
		t.Fatalf("failed batch published: seq %d -> %d", before.Seq(), after.Seq())
	}
	if loc := after.Graph().Loc(3); loc.X == 0.7 {
		t.Fatal("failed write visible to readers")
	}
	// Every later write fails fast without reaching the graph.
	if err := e.CheckIn(ctx, 4, geom.Point{X: 0.2, Y: 0.2}); err == nil || !errors.Is(err, fail) {
		t.Fatalf("write on read-only engine: %v", err)
	}
	if _, err := e.UpdateEdge(ctx, 0, 18, true); err == nil || !errors.Is(err, fail) {
		t.Fatalf("edge on read-only engine: %v", err)
	}
	// Reads keep serving the last durable snapshot.
	w := after.Get()
	defer after.Put(w)
	if _, err := w.AppInc(0, 4); err != nil {
		t.Fatalf("read on read-only engine: %v", err)
	}
}

// TestScanHelpersComeFromThePool pins where a circle scan's helpers come
// from: fifty sequential wide Exact+ queries through one engine at
// GOMAXPROCS 4 each scan on four workers — the pooled worker and three
// helpers it borrows from the same pool and returns to it — so the pool
// never clones more than those four searchers. Each query's εA differs in
// its last digits, so no query is answered by the one before it.
func TestScanHelpersComeFromThePool(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	// A clique of 64 scattered vertices: at k = 20 and εA = 0.5 Exact+'s F1
	// holds 36 of them, nine strips.
	rnd := rand.New(rand.NewSource(5))
	b := graph.NewBuilder(64)
	for v := 0; v < 64; v++ {
		b.SetLoc(graph.V(v), geom.Point{X: rnd.Float64(), Y: rnd.Float64()})
		for j := 0; j < v; j++ {
			b.AddEdge(graph.V(v), graph.V(j))
		}
	}
	e := New(b.Build(), Options{})
	t.Cleanup(e.Close)
	for i := 0; i < 50; i++ {
		query := core.Query{Algo: "exact+", Q: 0, K: 20, EpsA: core.Float(0.5 + 1e-9*float64(i))}
		snap := e.Current()
		w := snap.Get()
		res, err := w.Search(context.Background(), query)
		snap.Put(w)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Workers != 4 {
			t.Fatalf("query %d scanned on %d workers, want 4", i, res.Stats.Workers)
		}
	}
	if n := e.PoolClones(); n > 4 {
		t.Fatalf("fifty scans on four workers made %d pool clones, want at most 4", n)
	}
}
