package store

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sacsearch/internal/core"
	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
	"sacsearch/internal/wal"
)

// testGraph plants spatial cliques wired with a few bridges — every vertex
// has a tight community for k up to 4, and the builder is deterministic so
// tests can rebuild the identical pristine graph as a reference.
func testGraph() *graph.Graph {
	rnd := rand.New(rand.NewSource(17))
	const nc, cs = 8, 6
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
	for c := 0; c < nc-1; c++ {
		b.AddEdge(graph.V(c*6), graph.V((c+1)*6))
	}
	return b.Build()
}

// churnEvent is one logical write the tests drive through a store; only
// events that changed state (every check-in, edge toggles that reported
// changed) are recorded, in sequence order, so the test can rebuild the
// exact graph any WAL prefix describes.
type churnEvent struct {
	checkin bool
	v       graph.V
	loc     geom.Point
	u, w    graph.V
	insert  bool
}

// driveChurn applies n deterministic mixed events (from seed) through st,
// returning the state-changing ones in WAL order.
func driveChurn(t *testing.T, st *Store, seed int64, n int) []churnEvent {
	t.Helper()
	ctx := context.Background()
	rnd := rand.New(rand.NewSource(seed))
	nv := st.Current().Graph().NumVertices()
	var changed []churnEvent
	for i := 0; i < n; i++ {
		if rnd.Intn(3) < 2 {
			ev := churnEvent{checkin: true, v: graph.V(rnd.Intn(nv)),
				loc: geom.Point{X: rnd.Float64(), Y: rnd.Float64()}}
			if err := st.CheckIn(ctx, ev.v, ev.loc); err != nil {
				t.Fatalf("check-in %d: %v", i, err)
			}
			changed = append(changed, ev)
		} else {
			ev := churnEvent{u: graph.V(rnd.Intn(nv)), w: graph.V(rnd.Intn(nv)), insert: rnd.Intn(2) == 0}
			if ev.u == ev.w {
				continue
			}
			did, err := st.UpdateEdge(ctx, ev.u, ev.w, ev.insert)
			if err != nil {
				t.Fatalf("edge %d: %v", i, err)
			}
			if did {
				changed = append(changed, ev)
			}
		}
	}
	return changed
}

// refGraph rebuilds the graph that the first n state-changing events
// produce, from the pristine test graph.
func refGraph(t *testing.T, events []churnEvent, n int) *graph.Graph {
	t.Helper()
	g := testGraph()
	for i := 0; i < n; i++ {
		ev := events[i]
		if ev.checkin {
			g.SetLoc(ev.v, ev.loc)
			continue
		}
		var did bool
		if ev.insert {
			did = g.AddEdge(ev.u, ev.w)
		} else {
			did = g.RemoveEdge(ev.u, ev.w)
		}
		if !did {
			t.Fatalf("reference replay: event %d (%+v) was a no-op", i, ev)
		}
	}
	return g
}

// graphsEqual compares topology and locations exactly.
func graphsEqual(t *testing.T, label string, a, b *graph.Graph) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("%s: size (%d,%d) vs (%d,%d)", label,
			a.NumVertices(), a.NumEdges(), b.NumVertices(), b.NumEdges())
	}
	for v := 0; v < a.NumVertices(); v++ {
		na, nb := a.Neighbors(graph.V(v)), b.Neighbors(graph.V(v))
		if len(na) != len(nb) {
			t.Fatalf("%s: vertex %d degree %d vs %d", label, v, len(na), len(nb))
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("%s: vertex %d adjacency differs", label, v)
			}
		}
		if a.Loc(graph.V(v)) != b.Loc(graph.V(v)) {
			t.Fatalf("%s: vertex %d location differs", label, v)
		}
	}
}

func TestOpenEmptyDirWithoutInit(t *testing.T) {
	if _, err := Open(t.TempDir(), Options{}); err == nil {
		t.Fatal("empty dir without Init opened")
	}
}

func TestBootstrapCloseReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Init: testGraph()})
	if err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.Recovered || s.ReplayedRecords != 0 || s.FsyncPolicy != "always" {
		t.Fatalf("bootstrap stats = %+v", s)
	}
	events := driveChurn(t, st, 1, 60)
	walSeq := st.Current().WalSeq()
	if walSeq != uint64(len(events)) {
		t.Fatalf("WalSeq %d, %d state-changing events", walSeq, len(events))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen needs no Init: the checkpoint is the state.
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s := st2.Stats()
	if !s.Recovered {
		t.Fatalf("reopen stats = %+v, want Recovered", s)
	}
	// Clean shutdown checkpointed the final state: nothing to replay.
	if s.ReplayedRecords != 0 {
		t.Fatalf("clean reopen replayed %d records", s.ReplayedRecords)
	}
	if s.WalLastSeq != walSeq || s.LastCheckpointSeq != walSeq {
		t.Fatalf("sequences after clean reopen: %+v, want %d", s, walSeq)
	}
	graphsEqual(t, "clean reopen", st2.Current().Graph(), refGraph(t, events, len(events)))

	// Writes continue on the recovered chain, monotonically.
	more := driveChurn(t, st2, 2, 10)
	if got := st2.Current().WalSeq(); got != walSeq+uint64(len(more)) {
		t.Fatalf("WalSeq after resume = %d, want %d", got, walSeq+uint64(len(more)))
	}
}

func TestCrashRecoveryReplaysWal(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Init: testGraph(), CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	events := driveChurn(t, st, 3, 50)
	st.Crash()

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer st2.Close()
	s := st2.Stats()
	// No checkpoint ran after bootstrap, so recovery replays the whole WAL.
	if s.ReplayedRecords != len(events) {
		t.Fatalf("replayed %d records, want %d", s.ReplayedRecords, len(events))
	}
	graphsEqual(t, "crash recovery", st2.Current().Graph(), refGraph(t, events, len(events)))
}

func TestCheckpointTruncatesWalAndBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	opt := Options{
		Init:               testGraph(),
		SegmentBytes:       512, // force rotation every ~14 records
		CheckpointEvents:   32,
		CheckpointInterval: -1,
	}
	st, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	events := driveChurn(t, st, 4, 300)
	// The event-count trigger is asynchronous; force the final one so the
	// assertion below is deterministic.
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s := st.Stats()
	if s.LastCheckpointSeq != uint64(len(events)) {
		t.Fatalf("checkpoint seq %d, want %d", s.LastCheckpointSeq, len(events))
	}
	// ~21 segments were written; truncation must have removed the covered
	// prefix (everything before the previous retained checkpoint).
	if s.WalSegments > 8 {
		t.Fatalf("WAL still holds %d segments after checkpointing", s.WalSegments)
	}
	st.Crash()

	st2, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer st2.Close()
	s2 := st2.Stats()
	// Recovery starts from the newest checkpoint: nothing newer was written.
	if s2.ReplayedRecords != 0 {
		t.Fatalf("replayed %d records, want 0 (checkpoint covers all)", s2.ReplayedRecords)
	}
	graphsEqual(t, "post-truncation recovery", st2.Current().Graph(), refGraph(t, events, len(events)))
}

func TestWalWithoutCheckpointFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(dir, 0, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]wal.Record{{Kind: wal.KindCheckin, V: 1, Loc: geom.Point{X: 0.5, Y: 0.5}}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, Options{Init: testGraph()})
	if err == nil || !strings.Contains(err.Error(), "no checkpoint") {
		t.Fatalf("WAL without checkpoint: err = %v", err)
	}
}

func TestForeignWalFailsLoudly(t *testing.T) {
	// A WAL recorded against a bigger graph must not replay onto this one.
	dir := t.TempDir()
	st, err := Open(dir, Options{Init: testGraph(), CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CheckIn(context.Background(), 2, geom.Point{X: 0.1, Y: 0.2}); err != nil {
		t.Fatal(err)
	}
	st.Crash()
	// Forge a record that moves a vertex the checkpointed graph lacks.
	l, err := wal.Open(dir, 0, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]wal.Record{{Kind: wal.KindCheckin, V: 100000, Loc: geom.Point{X: 0.5, Y: 0.5}}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("foreign WAL record replayed silently")
	}
}

func TestFsyncPolicySurvivesProcessCrash(t *testing.T) {
	// All three policies survive a process kill on the same machine (the
	// page cache holds unsynced appends); they differ only under power
	// loss, which a test cannot inject. This pins that interval/never are
	// not dropping records on the floor before they even reach the kernel.
	for _, p := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(string(p), func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir, Options{Init: testGraph(), Fsync: p, CheckpointInterval: -1})
			if err != nil {
				t.Fatal(err)
			}
			events := driveChurn(t, st, 5, 25)
			st.Crash()
			st2, err := Open(dir, Options{Fsync: p})
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			graphsEqual(t, string(p), st2.Current().Graph(), refGraph(t, events, len(events)))
		})
	}
}

func TestDoubleCloseAndStatsRace(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Init: testGraph(), CheckpointEvents: 8})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = st.Stats()
		}
	}()
	driveChurn(t, st, 6, 50)
	<-done
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStaleTempCheckpointIgnored(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Init: testGraph()})
	if err != nil {
		t.Fatal(err)
	}
	events := driveChurn(t, st, 7, 20)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// A crash mid-install — of a checkpoint or of the epoch fence — leaves a
	// .tmp; it must not confuse recovery, and Open removes it.
	stale := []string{ckptName(9999) + ".tmp", epochFile + ".tmp"}
	for _, name := range stale {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	graphsEqual(t, "tmp ignored", st2.Current().Graph(), refGraph(t, events, len(events)))
	for _, name := range stale {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("stale %s not cleaned up (%v)", name, err)
		}
	}
}

// TestDurableQueriesServe sanity-checks that queries run against a
// recovered store exactly like against any engine.
func TestDurableQueriesServe(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Init: testGraph()})
	if err != nil {
		t.Fatal(err)
	}
	driveChurn(t, st, 8, 30)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	snap := st2.Current()
	w := snap.Get()
	defer snap.Put(w)
	if _, err := w.AppFast(0, 3, 0.5); err != nil && err != core.ErrNoCommunity {
		t.Fatalf("query on recovered store: %v", err)
	}
}
