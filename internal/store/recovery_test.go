package store

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"sacsearch/internal/core"
	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
	"sacsearch/internal/wal"
)

// This file is the crash-injection differential suite: every injected cut or
// corruption must leave store.Open with exactly two outcomes — a loud error,
// or a recovered state differentially identical (same answers from all five
// algorithms) to a never-crashed graph holding the same WAL prefix. Serving
// silently wrong state is the one forbidden outcome.

// answersEqual runs Exact, ExactPlus, AppInc, AppFast and AppAcc for (q, k)
// on both searchers and compares members and MCC exactly.
func answersEqual(t *testing.T, label string, got, want *core.Searcher, q graph.V, k int) {
	t.Helper()
	type algo struct {
		name string
		run  func(s *core.Searcher) (*core.Result, error)
	}
	for _, a := range []algo{
		{"exact", func(s *core.Searcher) (*core.Result, error) { return s.Exact(q, k) }},
		{"exact+", func(s *core.Searcher) (*core.Result, error) { return s.ExactPlus(q, k, 1e-3) }},
		{"appinc", func(s *core.Searcher) (*core.Result, error) { return s.AppInc(q, k) }},
		{"appfast", func(s *core.Searcher) (*core.Result, error) { return s.AppFast(q, k, 0.5) }},
		{"appacc", func(s *core.Searcher) (*core.Result, error) { return s.AppAcc(q, k, 0.5) }},
	} {
		rg, eg := a.run(got)
		rw, ew := a.run(want)
		if (eg == nil) != (ew == nil) {
			t.Fatalf("%s: %s(%d,%d): recovered err=%v, reference err=%v", label, a.name, q, k, eg, ew)
		}
		if eg != nil {
			if errors.Is(eg, core.ErrNoCommunity) && errors.Is(ew, core.ErrNoCommunity) {
				continue
			}
			t.Fatalf("%s: %s(%d,%d): errors %v vs %v", label, a.name, q, k, eg, ew)
		}
		if len(rg.Members) != len(rw.Members) {
			t.Fatalf("%s: %s(%d,%d): %d members vs %d", label, a.name, q, k, len(rg.Members), len(rw.Members))
		}
		for i := range rg.Members {
			if rg.Members[i] != rw.Members[i] {
				t.Fatalf("%s: %s(%d,%d): members differ: %v vs %v", label, a.name, q, k, rg.Members, rw.Members)
			}
		}
		if rg.MCC != rw.MCC {
			t.Fatalf("%s: %s(%d,%d): MCC %+v vs %+v", label, a.name, q, k, rg.MCC, rw.MCC)
		}
	}
}

// diffCheck pins the recovered store's answers to a fresh single-threaded
// searcher over the reference graph for a spread of query vertices.
func diffCheck(t *testing.T, label string, st *Store, ref *graph.Graph) {
	t.Helper()
	graphsEqual(t, label, st.Current().Graph(), ref)
	snap := st.Current()
	w := snap.Get()
	defer snap.Put(w)
	cold := core.NewSearcher(ref)
	for _, q := range []graph.V{0, 7, 20, 41} {
		answersEqual(t, label, w, cold, q, 3)
	}
}

// TestRecoveryDifferentialAtRandomCutPoints is the satellite recovery test:
// a churn stream runs through a durable engine, SIGKILL is simulated by
// reopening from dataDir at random cut points, and post-recovery answers are
// pinned to a fresh searcher on the same logical state — then the stream
// continues on the recovered store, so recovery composes across crashes.
func TestRecoveryDifferentialAtRandomCutPoints(t *testing.T) {
	dir := t.TempDir()
	opt := Options{
		Init:               testGraph(),
		SegmentBytes:       1 << 10, // many rotations
		CheckpointEvents:   40,      // checkpoints interleave the stream
		CheckpointInterval: -1,
	}
	rnd := rand.New(rand.NewSource(99))
	var all []churnEvent
	st, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		n := 20 + rnd.Intn(120) // the random cut point
		all = append(all, driveChurn(t, st, int64(1000+round), n)...)
		st.Crash()

		st, err = Open(dir, Options{SegmentBytes: opt.SegmentBytes,
			CheckpointEvents: opt.CheckpointEvents, CheckpointInterval: -1})
		if err != nil {
			t.Fatalf("round %d: recovery: %v", round, err)
		}
		s := st.Stats()
		if s.WalLastSeq != uint64(len(all)) {
			t.Fatalf("round %d: recovered seq %d, want %d (lost acknowledged writes)",
				round, s.WalLastSeq, len(all))
		}
		diffCheck(t, "round", st, refGraph(t, all, len(all)))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// walSegments lists the data dir's WAL segment files in order.
func walSegments(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".seg") {
			segs = append(segs, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(segs)
	return segs
}

// copyDir clones a data dir so each injection starts from the same bytes.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestRecoveryAtArbitraryByteOffsets kills the log at arbitrary byte
// offsets: for every cut k of the final segment, recovery must come back
// with some prefix S of the acknowledged history and answer exactly like a
// never-crashed graph at S — or refuse loudly. Checkpoints are disabled so
// the full stream stays in the WAL and every cut is meaningful.
func TestRecoveryAtArbitraryByteOffsets(t *testing.T) {
	master := t.TempDir()
	st, err := Open(master, Options{Init: testGraph(), CheckpointInterval: -1, SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	events := driveChurn(t, st, 77, 160)
	st.Crash()

	segs := walSegments(t, master)
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	size := int(fi.Size())
	rnd := rand.New(rand.NewSource(5))
	cuts := []int{0, 1, 7, 8, 9, size - 1, size / 2}
	for i := 0; i < 10; i++ {
		cuts = append(cuts, rnd.Intn(size))
	}
	for _, cut := range cuts {
		dir := copyDir(t, master)
		if err := os.Truncate(filepath.Join(dir, filepath.Base(last)), int64(cut)); err != nil {
			t.Fatal(err)
		}
		st2, err := Open(dir, Options{CheckpointInterval: -1})
		if err != nil {
			// A loud refusal is an acceptable outcome (e.g. the segment
			// magic itself was cut).
			continue
		}
		prefix := int(st2.Stats().WalLastSeq)
		if prefix > len(events) {
			t.Fatalf("cut %d: recovered %d events, only %d were written", cut, prefix, len(events))
		}
		diffCheck(t, "cut", st2, refGraph(t, events, prefix))
		st2.Crash()
	}
}

// TestRecoveryWithCorruptCRC flips single bytes across the WAL: damage in
// acknowledged history (followed by valid records) must fail loudly; damage
// in the final record may be absorbed as a torn write, recovering the exact
// prefix before it.
func TestRecoveryWithCorruptCRC(t *testing.T) {
	master := t.TempDir()
	st, err := Open(master, Options{Init: testGraph(), CheckpointInterval: -1, SegmentBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	events := driveChurn(t, st, 31, 120)
	st.Crash()

	segs := walSegments(t, master)
	if len(segs) < 2 {
		t.Fatalf("want ≥2 segments, got %d", len(segs))
	}
	flip := func(path string, off int) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[off] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Sealed-segment corruption: always loud.
	{
		dir := copyDir(t, master)
		seg := filepath.Join(dir, filepath.Base(segs[0]))
		flip(seg, 100)
		if _, err := Open(dir, Options{CheckpointInterval: -1}); err == nil {
			t.Fatal("sealed-segment bit rot recovered silently")
		}
	}
	// Mid-final-segment corruption (valid records follow): loud.
	{
		dir := copyDir(t, master)
		seg := filepath.Join(dir, filepath.Base(segs[len(segs)-1]))
		flip(seg, 20)
		if _, err := Open(dir, Options{CheckpointInterval: -1}); err == nil {
			t.Fatal("mid-log bit rot recovered silently")
		}
	}
	// Final-record corruption: absorbed as a torn write; the recovered
	// prefix must answer exactly like the reference at that prefix.
	{
		dir := copyDir(t, master)
		seg := filepath.Join(dir, filepath.Base(segs[len(segs)-1]))
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		flip(seg, int(fi.Size())-3)
		st2, err := Open(dir, Options{CheckpointInterval: -1})
		if err != nil {
			t.Fatalf("torn final record refused: %v", err)
		}
		prefix := int(st2.Stats().WalLastSeq)
		if prefix != len(events)-1 {
			t.Fatalf("torn final record: prefix %d, want %d", prefix, len(events)-1)
		}
		diffCheck(t, "torn-tail", st2, refGraph(t, events, prefix))
		st2.Crash()
	}
}

// TestTruncatedCheckpointFallsBack damages the newest checkpoint: recovery
// must fall back to the previous one and replay the retained WAL forward to
// the identical final state; with every checkpoint damaged it must refuse.
func TestTruncatedCheckpointFallsBack(t *testing.T) {
	master := t.TempDir()
	st, err := Open(master, Options{
		Init:               testGraph(),
		SegmentBytes:       1 << 10,
		CheckpointEvents:   30,
		CheckpointInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	events := driveChurn(t, st, 13, 200)
	st.Crash()

	ckpts, err := listCheckpoints(master)
	if err != nil || len(ckpts) != 2 {
		t.Fatalf("retained checkpoints = %v (err %v), want 2", ckpts, err)
	}

	// Truncate the newest checkpoint to half: fall back, same final state.
	{
		dir := copyDir(t, master)
		newest := filepath.Join(dir, ckptName(ckpts[len(ckpts)-1]))
		fi, err := os.Stat(newest)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(newest, fi.Size()/2); err != nil {
			t.Fatal(err)
		}
		st2, err := Open(dir, Options{CheckpointInterval: -1})
		if err != nil {
			t.Fatalf("fallback recovery refused: %v", err)
		}
		s := st2.Stats()
		if s.WalLastSeq != uint64(len(events)) {
			t.Fatalf("fallback lost writes: seq %d, want %d", s.WalLastSeq, len(events))
		}
		if s.ReplayedRecords == 0 {
			t.Fatal("fallback did not replay the WAL gap")
		}
		diffCheck(t, "ckpt-fallback", st2, refGraph(t, events, len(events)))
		st2.Crash()
	}
	// Every checkpoint damaged: loud refusal, never a silent fresh start.
	{
		dir := copyDir(t, master)
		for _, seq := range ckpts {
			if err := os.Truncate(filepath.Join(dir, ckptName(seq)), 10); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := Open(dir, Options{CheckpointInterval: -1, Init: testGraph()}); err == nil {
			t.Fatal("all-checkpoints-damaged recovered silently")
		}
	}
}

// TestWalRecordsOnlyStateChanges pins the log's contents to the
// state-changing event stream: no-op edge toggles must not occupy WAL
// sequence numbers.
func TestWalRecordsOnlyStateChanges(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Init: testGraph(), CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	events := driveChurn(t, st, 55, 80)
	st.Crash()
	var recs []graph.Write
	if _, err := wal.Replay(dir, 0, func(_ uint64, w graph.Write) error {
		recs = append(recs, w)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(events) {
		t.Fatalf("WAL holds %d records, %d events changed state", len(recs), len(events))
	}
	for i, r := range recs {
		ev := events[i]
		want := graph.Write{Kind: graph.WriteCheckin, V: ev.v, Loc: ev.loc}
		if !ev.checkin {
			want = graph.Write{Kind: graph.WriteRemoveEdge, V: ev.u, W: ev.w}
			if ev.insert {
				want.Kind = graph.WriteAddEdge
			}
		}
		if r != want {
			t.Fatalf("record %d: %+v vs %+v", i, r, ev)
		}
	}
}

// TestRecoveryRefusesLoggedNoOp: the leader logs only writes that change
// state, so a WAL record that changes nothing on replay — here, re-inserting
// an edge the checkpoint already holds — means the log and the checkpoint
// diverged. Recovery fails and names the record, as a follower refuses the
// same bytes shipped to it.
func TestRecoveryRefusesLoggedNoOp(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Init: testGraph(), CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	st.Crash()
	l, err := wal.Open(dir, 0, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]graph.Write{
		{Kind: graph.WriteCheckin, V: 2, Loc: geom.Point{X: 0.5, Y: 0.5}},
		{Kind: graph.WriteAddEdge, V: 0, W: 1}, // in the checkpoint already
	}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "WAL seq 2") {
		t.Fatalf("a logged no-op recovered: err = %v, want one naming WAL seq 2", err)
	}
}

// TestRecoveryPastTailLostBelowCheckpoint: under a lax fsync policy a
// checkpoint at seq 5 can be durable while the WAL keeps only records 1..3.
// The log then resumes at 6 in a new segment, and every later recovery
// starts from the checkpoint and replays 6 on: the jump from 3 to 6 lies
// below the checkpoint and is no gap.
func TestRecoveryPastTailLostBelowCheckpoint(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Init: testGraph(), Fsync: FsyncNever, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	var events []churnEvent
	checkin := func(st *Store, v graph.V) {
		t.Helper()
		ev := churnEvent{checkin: true, v: v, loc: geom.Point{X: 0.1 * float64(v+1), Y: 0.9}}
		if err := st.CheckIn(context.Background(), ev.v, ev.loc); err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	for v := range graph.V(5) {
		checkin(st, v)
	}
	if err := st.Checkpoint(); err != nil || st.Stats().LastCheckpointSeq != 5 {
		t.Fatalf("fixture: checkpoint at %d, %v; want 5", st.Stats().LastCheckpointSeq, err)
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

	st2, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("recovery after the loss: %v", err)
	}
	graphsEqual(t, "after the loss", st2.Current().Graph(), refGraph(t, events, 5))
	checkin(st2, 7)
	st2.Crash()

	st3, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("recovery past the loss: %v", err)
	}
	defer st3.Close()
	if n := st3.Stats().ReplayedRecords; n != 1 {
		t.Fatalf("replayed %d records, want 1 (seq 6)", n)
	}
	diffCheck(t, "past the loss", st3, refGraph(t, events, len(events)))
}
