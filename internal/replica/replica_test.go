package replica

import (
	"bytes"
	"context"
	"errors"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"sacsearch/internal/core"
	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
	"sacsearch/internal/store"
	"sacsearch/internal/telemetry"
	"sacsearch/internal/wal"
)

// discard swallows connection-level log lines: reconnect storms are the
// point of these tests, not noise worth printing.
var discard = slog.New(slog.NewTextHandler(io.Discard, nil))

// testGraph mirrors the store suite's deterministic fixture: 8 spatial
// cliques of 6 vertices with bridges, so every vertex has a community for
// k ≤ 4 and a reference copy can be rebuilt bit-identically.
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

type churnEvent struct {
	checkin bool
	v       graph.V
	loc     geom.Point
	u, w    graph.V
	insert  bool
}

// driveChurn applies n deterministic mixed events through the leader store,
// returning the state-changing ones in WAL order.
func driveChurn(t *testing.T, st *store.Store, seed int64, n int) []churnEvent {
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

// refGraph rebuilds the graph the first n state-changing events produce.
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

// answersEqualRegistry pins got's answers to want's for EVERY registered
// algorithm, driving each through the unified Search entry point with
// default parameters (required ones pinned to a fixed value).
func answersEqualRegistry(t *testing.T, label string, got, want *core.Searcher, qv graph.V, k int) {
	t.Helper()
	ctx := context.Background()
	for _, spec := range core.Algorithms() {
		q := core.Query{Algo: spec.Name, Q: qv, K: k}
		for _, p := range spec.Params {
			if p.Required {
				if err := q.SetParam(p.Name, 0.3); err != nil {
					t.Fatalf("%s: %s: %v", label, spec.Name, err)
				}
			}
		}
		rg, eg := got.Search(ctx, q)
		rw, ew := want.Search(ctx, q)
		if (eg == nil) != (ew == nil) {
			t.Fatalf("%s: %s(%d,%d): follower err=%v, reference err=%v", label, spec.Name, qv, k, eg, ew)
		}
		if eg != nil {
			if errors.Is(eg, core.ErrNoCommunity) && errors.Is(ew, core.ErrNoCommunity) {
				continue
			}
			t.Fatalf("%s: %s(%d,%d): errors %v vs %v", label, spec.Name, qv, k, eg, ew)
		}
		if len(rg.Members) != len(rw.Members) {
			t.Fatalf("%s: %s(%d,%d): %d members vs %d", label, spec.Name, qv, k, len(rg.Members), len(rw.Members))
		}
		for i := range rg.Members {
			if rg.Members[i] != rw.Members[i] {
				t.Fatalf("%s: %s(%d,%d): members differ: %v vs %v", label, spec.Name, qv, k, rg.Members, rw.Members)
			}
		}
		if rg.MCC != rw.MCC {
			t.Fatalf("%s: %s(%d,%d): MCC %+v vs %+v", label, spec.Name, qv, k, rg.MCC, rw.MCC)
		}
	}
}

// diffCheckFollower pins the follower's replicated state to a fresh
// single-threaded searcher over the reference graph.
func diffCheckFollower(t *testing.T, label string, f *Follower, ref *graph.Graph) {
	t.Helper()
	snap := f.Current()
	if snap == nil {
		t.Fatalf("%s: follower has no snapshot", label)
	}
	graphsEqual(t, label, snap.Graph(), ref)
	w := snap.Get()
	defer snap.Put(w)
	cold := core.NewSearcher(ref)
	for _, q := range []graph.V{0, 7, 20, 41} {
		answersEqualRegistry(t, label, w, cold, q, 3)
	}
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// startLeader opens a store on a fresh dir and serves replication for it on
// a loopback listener.
func startLeader(t *testing.T, opt store.Options) (*store.Store, *Shipper) {
	t.Helper()
	if opt.Init == nil {
		opt.Init = testGraph()
	}
	if opt.CheckpointInterval == 0 {
		opt.CheckpointInterval = -1
	}
	st, err := store.Open(t.TempDir(), opt)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	sh := NewShipper(st, ln, ShipperOptions{
		Heartbeat: 20 * time.Millisecond, Poll: time.Millisecond, Logger: discard})
	t.Cleanup(func() { sh.Close(); st.Close() })
	return st, sh
}

func startFollower(t *testing.T, addr string) *Follower {
	t.Helper()
	f, err := NewFollower(FollowerOptions{
		Leader:     addr,
		BackoffMin: 5 * time.Millisecond,
		BackoffMax: 100 * time.Millisecond,
		Logger:     discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

func caughtUp(st *store.Store, f *Follower) func() bool {
	return func() bool {
		s := f.Status()
		return s.Synced && s.AppliedSeq == st.WalLastSeq()
	}
}

func TestFollowerBootstrapAndLiveTail(t *testing.T) {
	st, sh := startLeader(t, store.Options{})
	f := startFollower(t, sh.Addr().String())

	waitFor(t, 5*time.Second, "initial sync", func() bool { return f.Status().Synced })
	diffCheckFollower(t, "bootstrap", f, testGraph())

	events := driveChurn(t, st, 42, 120)
	waitFor(t, 5*time.Second, "live tail catch-up", caughtUp(st, f))
	diffCheckFollower(t, "live tail", f, refGraph(t, events, len(events)))

	s := f.Status()
	if s.Resyncs != 1 {
		t.Fatalf("resyncs = %d, want exactly 1 (bootstrap only)", s.Resyncs)
	}
	if s.LagSeqs != 0 {
		t.Fatalf("caught-up follower reports lagSeqs %d", s.LagSeqs)
	}
	if s.LeaderEpoch != st.Epoch() {
		t.Fatalf("follower epoch %d, leader %d", s.LeaderEpoch, st.Epoch())
	}
}

func TestFollowerResumesAfterDisconnect(t *testing.T) {
	st, sh := startLeader(t, store.Options{})

	// Every session dies after 6 KB — enough for the ~2 KB bootstrap
	// snapshot, then repeatedly mid-stream; replication must still converge
	// by resuming from the last applied seq (tail, not snapshot, once
	// synced).
	proxy, err := NewProxy(sh.Addr().String(), func(i int) Fault {
		return Fault{CutAt: 6 << 10}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	f := startFollower(t, proxy.Addr())
	waitFor(t, 5*time.Second, "initial sync", func() bool { return f.Status().Synced })

	var events []churnEvent
	for round := 0; round < 4; round++ {
		events = append(events, driveChurn(t, st, int64(100+round), 60)...)
		waitFor(t, 10*time.Second, "catch-up after disconnects", caughtUp(st, f))
	}
	diffCheckFollower(t, "resume", f, refGraph(t, events, len(events)))

	s := f.Status()
	if s.Reconnects < 2 {
		t.Fatalf("reconnects = %d, want ≥ 2 (cuts forced reconnection)", s.Reconnects)
	}
	if s.Resyncs != 1 {
		t.Fatalf("resyncs = %d, want 1: reconnects within one epoch must tail-resume, not re-snapshot", s.Resyncs)
	}
}

func TestFollowerResyncsAcrossTruncatedHistory(t *testing.T) {
	// Tiny segments + aggressive checkpointing: while the follower is
	// disconnected the leader truncates the WAL past the follower's
	// position, so resume must fall back to a snapshot — never skip.
	st, sh := startLeader(t, store.Options{SegmentBytes: 1 << 10, CheckpointInterval: -1})
	f := startFollower(t, sh.Addr().String())
	waitFor(t, 5*time.Second, "initial sync", func() bool { return f.Status().Synced })
	events := driveChurn(t, st, 7, 40)
	waitFor(t, 5*time.Second, "pre-partition catch-up", caughtUp(st, f))

	// Partition: close the shipper, keep churning, checkpoint + truncate.
	sh.Close()
	events = append(events, driveChurn(t, st, 8, 200)...)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	events = append(events, driveChurn(t, st, 9, 200)...)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Heal the partition on the same address.
	ln, err := net.Listen("tcp", sh.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sh2 := NewShipper(st, ln, ShipperOptions{Heartbeat: 20 * time.Millisecond, Poll: time.Millisecond, Logger: discard})
	defer sh2.Close()

	waitFor(t, 10*time.Second, "post-truncation catch-up", caughtUp(st, f))
	diffCheckFollower(t, "truncated history", f, refGraph(t, events, len(events)))
	if s := f.Status(); s.Resyncs < 2 {
		t.Fatalf("resyncs = %d, want ≥ 2 (truncation must force a snapshot re-sync)", s.Resyncs)
	}
}

func TestFencingRejectsDeposedLeaderWrites(t *testing.T) {
	st, sh := startLeader(t, store.Options{})
	f := startFollower(t, sh.Addr().String())
	waitFor(t, 5*time.Second, "initial sync", func() bool { return f.Status().Synced })

	// A promoted node announces its higher epoch over the replication plane.
	newEpoch := st.Epoch() + 1
	if _, err := FenceLeader(sh.Addr().String(), newEpoch, 5*time.Second); err != nil {
		t.Fatalf("FenceLeader: %v", err)
	}
	if !st.Fenced() || st.FencedBy() != newEpoch {
		t.Fatalf("leader fenced=%v by=%d, want true/%d", st.Fenced(), st.FencedBy(), newEpoch)
	}
	// The fenced ex-leader's writes are rejected, not forked.
	if err := st.CheckIn(context.Background(), 0, geom.Point{X: 0.9, Y: 0.9}); !errors.Is(err, store.ErrFenced) {
		t.Fatalf("fenced leader check-in: err = %v, want ErrFenced", err)
	}
	if _, err := st.UpdateEdge(context.Background(), 0, 13, true); !errors.Is(err, store.ErrFenced) {
		t.Fatalf("fenced leader edge update: err = %v, want ErrFenced", err)
	}
	// Its shipper stops feeding followers: the stream ends and reconnects
	// are rejected, leaving the follower disconnected but still serving the
	// state it has.
	waitFor(t, 5*time.Second, "follower drops the fenced leader", func() bool {
		return !f.Status().Connected
	})
	if f.Current() == nil {
		t.Fatal("follower lost its readable state after the leader was fenced")
	}
}

func TestFollowerRefusesStaleLeader(t *testing.T) {
	st, sh := startLeader(t, store.Options{})
	f := startFollower(t, sh.Addr().String())
	waitFor(t, 5*time.Second, "initial sync", func() bool { return f.Status().Synced })

	// The follower hears of a newer epoch (e.g. a promotion elsewhere). Its
	// very next handshake carries that maxEpochSeen, which both fences the
	// old leader and makes the follower refuse its stream.
	f.maxEpoch.Store(st.Epoch() + 3)
	f.mu.Lock()
	if f.conn != nil {
		f.conn.Close() // force a reconnect carrying the new epoch
	}
	f.mu.Unlock()

	waitFor(t, 5*time.Second, "old leader fenced via handshake", st.Fenced)
	waitFor(t, 5*time.Second, "follower stays off the stale leader", func() bool {
		return !f.Status().Connected
	})
	if err := st.CheckIn(context.Background(), 1, geom.Point{X: 0.4, Y: 0.4}); !errors.Is(err, store.ErrFenced) {
		t.Fatalf("stale leader accepted a write: %v", err)
	}
}

// TestShipperAcks pins the ack channel: the leader's Status must see each
// live follower and track the slowest follower's applied position — the
// replication-lag signal /v1/health surfaces.
func TestShipperAcks(t *testing.T) {
	st, sh := startLeader(t, store.Options{})
	if s := sh.Status(); s.Followers != 0 || s.MinAckedSeq != 0 {
		t.Fatalf("idle shipper status = %+v, want zero", s)
	}

	f1 := startFollower(t, sh.Addr().String())
	waitFor(t, 5*time.Second, "one follower streaming", func() bool {
		return sh.Status().Followers == 1
	})

	driveChurn(t, st, 99, 80)
	waitFor(t, 5*time.Second, "follower acks the full log", func() bool {
		return sh.Status().MinAckedSeq == st.WalLastSeq()
	})
	waitFor(t, 5*time.Second, "follower caught up", caughtUp(st, f1))

	// A second follower joins behind: MinAckedSeq must never overreport —
	// it can only be <= the slowest follower's applied seq.
	f2 := startFollower(t, sh.Addr().String())
	waitFor(t, 5*time.Second, "two followers streaming", func() bool {
		return sh.Status().Followers == 2
	})
	driveChurn(t, st, 100, 40)
	waitFor(t, 5*time.Second, "both followers ack the full log", func() bool {
		s := sh.Status()
		return s.Followers == 2 && s.MinAckedSeq == st.WalLastSeq()
	})
	a1, a2 := f1.Status().AppliedSeq, f2.Status().AppliedSeq
	if min := sh.Status().MinAckedSeq; min > a1 || min > a2 {
		t.Fatalf("MinAckedSeq %d overreports follower positions (%d, %d)", min, a1, a2)
	}

	f2.Close()
	waitFor(t, 5*time.Second, "closed follower leaves the status", func() bool {
		return sh.Status().Followers == 1
	})
}

// TestFollowerExportsEngineMetrics pins a replica's sac_engine_* series: they
// describe the engine the follower serves from — after the initial sync, and
// again after a re-sync replaced that engine with a fresh one.
func TestFollowerExportsEngineMetrics(t *testing.T) {
	st, sh := startLeader(t, store.Options{SegmentBytes: 1 << 10, CheckpointInterval: -1})
	reg := telemetry.NewRegistry()
	f, err := NewFollower(FollowerOptions{
		Leader:     sh.Addr().String(),
		BackoffMin: 5 * time.Millisecond,
		BackoffMax: 100 * time.Millisecond,
		Logger:     discard,
		Metrics:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	// scraped is the replica's sac_engine_published sample, -1 when absent.
	scraped := func() float64 {
		var buf bytes.Buffer
		reg.WriteText(&buf)
		for _, line := range strings.Split(buf.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "sac_engine_published "); ok {
				n, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatalf("sac_engine_published sample %q: %v", line, err)
				}
				return n
			}
		}
		return -1
	}
	live := func() bool { return scraped() == float64(f.Engine().Published()) }

	waitFor(t, 5*time.Second, "initial sync", func() bool { return f.Status().Synced })
	waitFor(t, 5*time.Second, "sac_engine_published of the synced engine", live)
	driveChurn(t, st, 7, 40)
	waitFor(t, 5*time.Second, "catch-up", caughtUp(st, f))
	waitFor(t, 5*time.Second, "sac_engine_published after the tail", live)

	// Force a re-sync as TestFollowerResyncsAcrossTruncatedHistory does:
	// partition, truncate the WAL past the follower, heal.
	first := f.Engine()
	sh.Close()
	for seed := int64(8); seed <= 9; seed++ {
		driveChurn(t, st, seed, 200)
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	ln, err := net.Listen("tcp", sh.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sh2 := NewShipper(st, ln, ShipperOptions{Heartbeat: 20 * time.Millisecond, Poll: time.Millisecond, Logger: discard})
	defer sh2.Close()
	waitFor(t, 10*time.Second, "re-sync catch-up", caughtUp(st, f))
	if f.Engine() == first || f.Status().Resyncs < 2 {
		t.Fatalf("no re-sync happened (resyncs %d)", f.Status().Resyncs)
	}
	waitFor(t, 5*time.Second, "sac_engine_published of the re-synced engine", live)
	if got, stale := scraped(), float64(first.Published()); got == stale {
		t.Fatalf("sac_engine_published %v still reads the retired engine", got)
	}
}

// TestFollowerResyncsPastLostTail: a follower at seq 3 while the leader loses
// its WAL tail below a checkpoint at 5 (a lax fsync policy: the log keeps
// records 1..3 and resumes at 6 in a new segment) cannot tail-resume, since
// the leader no longer holds 4 and 5: it must take a snapshot and catch up,
// not reconnect forever.
func TestFollowerResyncsPastLostTail(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Init: testGraph(), Fsync: store.FsyncNever, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	shipperOpt := ShipperOptions{Heartbeat: 20 * time.Millisecond, Poll: time.Millisecond, Logger: discard}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sh := NewShipper(st, ln, shipperOpt)
	f := startFollower(t, sh.Addr().String())
	waitFor(t, 5*time.Second, "initial sync", func() bool { return f.Status().Synced })

	var events []churnEvent
	checkin := func(st *store.Store, v graph.V) {
		t.Helper()
		ev := churnEvent{checkin: true, v: v, loc: geom.Point{X: 0.1 * float64(v+1), Y: 0.9}}
		if err := st.CheckIn(context.Background(), ev.v, ev.loc); err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	for v := range graph.V(3) {
		checkin(st, v)
	}
	waitFor(t, 5*time.Second, "catch-up to seq 3", caughtUp(st, f))
	sh.Close()
	for v := range graph.V(2) {
		checkin(st, 3+v)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st.Crash()

	// The power loss: the segment keeps its first three frames.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("fixture: segments %v, %v", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	off := 8 // the segment's magic
	for range 3 {
		n, _, _, ok := wal.DecodeFrame(data[off:])
		if !ok {
			t.Fatal("fixture: an undecodable frame")
		}
		off += n
	}
	if err := os.Truncate(segs[0], int64(off)); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{Fsync: store.FsyncNever, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	checkin(st2, 7)
	ln2, err := net.Listen("tcp", sh.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sh2 := NewShipper(st2, ln2, shipperOpt)
	defer sh2.Close()

	waitFor(t, 10*time.Second, "catch-up past the lost tail", caughtUp(st2, f))
	diffCheckFollower(t, "past the lost tail", f, refGraph(t, events, len(events)))
	if s := f.Status(); s.Resyncs < 2 {
		t.Fatalf("resyncs = %d, want ≥ 2 (the lost tail must force a snapshot re-sync)", s.Resyncs)
	}
}
