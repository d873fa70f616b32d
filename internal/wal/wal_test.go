package wal

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
)

func rec(i int) graph.Write {
	if i%3 == 0 {
		w := graph.Write{Kind: graph.WriteRemoveEdge, V: graph.V(i), W: graph.V(i + 1)}
		if i%2 == 0 {
			w.Kind = graph.WriteAddEdge
		}
		return w
	}
	return graph.Write{Kind: graph.WriteCheckin, V: graph.V(i), Loc: geom.Point{X: float64(i) * 0.25, Y: float64(i) * 0.5}}
}

// logged is one record as the log hands it back: its sequence and write.
type logged struct {
	Seq uint64
	W   graph.Write
}

func appendN(t *testing.T, l *Log, from, n int) uint64 {
	t.Helper()
	var last uint64
	for i := from; i < from+n; i++ {
		seq, err := l.Append([]graph.Write{rec(i)})
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		last = seq
	}
	return last
}

func collect(t *testing.T, dir string, afterSeq uint64) []logged {
	t.Helper()
	var out []logged
	if _, err := Replay(dir, afterSeq, func(seq uint64, w graph.Write) error {
		out = append(out, logged{seq, w})
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// One multi-record batch plus single appends: both framing paths.
	batch := []graph.Write{rec(100), rec(101), rec(102)}
	if seq, err := l.Append(batch); err != nil || seq != 3 {
		t.Fatalf("batch append: seq=%d err=%v", seq, err)
	}
	last := appendN(t, l, 103, 5)
	if last != 8 {
		t.Fatalf("lastSeq = %d, want 8", last)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	got := collect(t, dir, 0)
	if len(got) != 8 {
		t.Fatalf("replayed %d records, want 8", len(got))
	}
	want := append(append([]graph.Write{}, batch...), rec(103), rec(104), rec(105), rec(106), rec(107))
	for i, r := range got {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d: seq %d", i, r.Seq)
		}
		if r.W != want[i] {
			t.Fatalf("record %d: %+v != %+v", i, r.W, want[i])
		}
	}
	// Partial replay skips the prefix.
	if tail := collect(t, dir, 6); len(tail) != 2 || tail[0].Seq != 7 {
		t.Fatalf("tail replay = %+v", tail)
	}
}

func TestSegmentRotationAndReopen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 0, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 64)
	segs, bytes := l.Stats()
	if segs < 3 {
		t.Fatalf("only %d segments after 64 records at 256-byte rotation", segs)
	}
	if bytes <= 0 {
		t.Fatal("no bytes reported")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen continues the chain where it left off.
	l2, err := Open(dir, 0, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	if l2.LastSeq() != 64 {
		t.Fatalf("recovered lastSeq = %d, want 64", l2.LastSeq())
	}
	appendN(t, l2, 64, 4)
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, dir, 0); len(got) != 68 {
		t.Fatalf("replayed %d records, want 68", len(got))
	}
}

func TestTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	path := segs[0].path
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut mid-way through the final frame: replay yields 9 records, reopen
	// truncates the tail and appends continue at seq 10.
	if err := os.WriteFile(path, full[:len(full)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, dir, 0); len(got) != 9 {
		t.Fatalf("replayed %d records over torn tail, want 9", len(got))
	}
	l2, err := Open(dir, 0, Options{})
	if err != nil {
		t.Fatalf("reopen over torn tail: %v", err)
	}
	if l2.LastSeq() != 9 {
		t.Fatalf("lastSeq = %d, want 9", l2.LastSeq())
	}
	appendN(t, l2, 50, 1)
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	got := collect(t, dir, 0)
	if len(got) != 10 || got[9].Seq != 10 {
		t.Fatalf("after repair+append: %d records, last %+v", len(got), got[len(got)-1])
	}
}

func TestMidSegmentCorruptionFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 40)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	path := segs[0].path
	full, _ := os.ReadFile(path)
	// Flip a byte early in the file: many valid frames follow, so this is
	// bit rot over acknowledged history, not a torn append.
	corrupt := append([]byte(nil), full...)
	corrupt[len(segMagic)+10] ^= 0xff
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(dir, 0, func(uint64, graph.Write) error { return nil }); err == nil {
		t.Fatal("mid-segment corruption replayed silently")
	}
	if _, err := Open(dir, 0, Options{}); err == nil {
		t.Fatal("mid-segment corruption opened silently")
	}
}

func TestSealedSegmentCorruptionFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 0, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 64)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	if len(segs) < 3 {
		t.Fatalf("want ≥3 segments, got %d", len(segs))
	}
	// Damage the tail of a sealed (non-final) segment: never tolerated.
	path := segs[0].path
	full, _ := os.ReadFile(path)
	corrupt := append([]byte(nil), full...)
	corrupt[len(corrupt)-3] ^= 0xff
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(dir, 0, func(uint64, graph.Write) error { return nil }); err == nil {
		t.Fatal("sealed-segment corruption replayed silently")
	}
}

func TestTruncateThrough(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 0, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 64)
	before, _ := l.Stats()
	if before < 3 {
		t.Fatalf("want ≥3 segments, got %d", before)
	}
	// Truncating through seq 1 covers no whole segment.
	if err := l.TruncateThrough(1); err != nil {
		t.Fatal(err)
	}
	if after, _ := l.Stats(); after != before {
		t.Fatalf("truncate(1) removed segments: %d -> %d", before, after)
	}
	// Truncating through seq 30 removes the fully covered prefix but keeps
	// every record after 30 replayable.
	if err := l.TruncateThrough(30); err != nil {
		t.Fatal(err)
	}
	after, _ := l.Stats()
	if after >= before {
		t.Fatalf("truncate(30) removed nothing: %d segments", after)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := collect(t, dir, 30)
	if len(got) != 34 || got[0].Seq != 31 {
		t.Fatalf("post-truncation tail: %d records, first %+v", len(got), got[0])
	}
	// Replaying from before the truncation horizon must fail loudly: that
	// history is gone.
	if _, err := Replay(dir, 10, func(uint64, graph.Write) error { return nil }); err == nil {
		t.Fatal("replay across truncated history succeeded silently")
	}
}

func TestStartSeqSeedsChain(t *testing.T) {
	dir := t.TempDir()
	// A fresh log over an already-checkpointed store starts after the
	// checkpoint's sequence.
	l, err := Open(dir, 500, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := l.Append([]graph.Write{rec(1)})
	if err != nil || seq != 501 {
		t.Fatalf("first seq = %d err=%v, want 501", seq, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := collect(t, dir, 500)
	if len(got) != 1 || got[0].Seq != 501 {
		t.Fatalf("replay = %+v", got)
	}
}

func TestFsyncPolicies(t *testing.T) {
	for _, p := range []Policy{PolicyAlways, PolicyInterval, PolicyNever} {
		t.Run(string(p), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, 0, Options{Policy: p, FlushInterval: 5 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			appendN(t, l, 0, 20)
			if p == PolicyInterval {
				time.Sleep(20 * time.Millisecond) // let the flusher tick
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if got := collect(t, dir, 0); len(got) != 20 {
				t.Fatalf("policy %s: replayed %d records, want 20", p, len(got))
			}
		})
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

func TestForeignFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "checkpoint-00000000000000000007.ckpt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("y"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 3)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, dir, 0); len(got) != 3 {
		t.Fatalf("replayed %d, want 3", len(got))
	}
}

func TestBadSegmentMagic(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), []byte("NOTAWALSEGMENT"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, 0, Options{})
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic: err = %v", err)
	}
}

// TestLostTailNeverRegressesBelowStartSeq guards against sequence reuse: a
// log whose active segment lost every record (power loss zeroing the file
// under a lax fsync policy) must resume numbering at the checkpoint's
// sequence, never below it — regressing would hand out already-covered
// seqs and make the next recovery silently skip acknowledged writes.
func TestLostTailNeverRegressesBelowStartSeq(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	// Zero the segment back to its magic: all five records are gone, but a
	// checkpoint at seq 5 already contains their effects.
	if err := os.Truncate(segs[0].path, int64(len(segMagic))); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := l2.LastSeq(); got != 5 {
		t.Fatalf("lastSeq = %d, want 5 (the checkpoint seq)", got)
	}
	seq, err := l2.Append([]graph.Write{rec(9)})
	if err != nil || seq != 6 {
		t.Fatalf("resumed append: seq=%d err=%v, want 6", seq, err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, dir, 5); len(got) != 1 || got[0].Seq != 6 {
		t.Fatalf("replay after resume = %+v", got)
	}
}

// lostTail lays out the log a lax fsync policy can leave after a power
// loss: records 1..5 appended, a checkpoint at seq 5 (the caller's), and the
// segment cut back to its first three frames. It returns the directory.
func lostTail(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	l, err := Open(dir, 0, Options{Policy: PolicyNever})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	off := len(segMagic)
	for range 3 {
		n, _, _, ok := DecodeFrame(data[off:])
		if !ok {
			t.Fatal("fixture: an undecodable frame")
		}
		off += n
	}
	if err := os.Truncate(segs[0].path, int64(off)); err != nil {
		t.Fatal(err)
	}
	return dir
}

// lossBelowCheckpoint is lostTail reopened at the checkpoint (which resumes
// at 6 in a new segment) and given one record: its segments hold [1..3] and
// [6].
func lossBelowCheckpoint(t *testing.T) string {
	t.Helper()
	dir := lostTail(t)
	l, err := Open(dir, 5, Options{Policy: PolicyNever})
	if err != nil {
		t.Fatal(err)
	}
	if seq := appendN(t, l, 5, 1); seq != 6 {
		t.Fatalf("fixture: the record after the loss is seq %d, want 6", seq)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if segs, _ := listSegments(dir); len(segs) != 2 || segs[1].first != 6 {
		t.Fatalf("fixture: segments %+v, want [1..3] and [6..]", segs)
	}
	return dir
}

// TestReopenPastLossBeforeAnyAppend: a log reopened past a lost tail and
// closed (or crashed) before its first append opens again, onto the empty
// segment it made, and resumes at 6.
func TestReopenPastLossBeforeAnyAppend(t *testing.T) {
	dir := lostTail(t)
	for i := range 3 {
		l, err := Open(dir, 5, Options{Policy: PolicyNever})
		if err != nil {
			t.Fatalf("reopen %d: %v", i, err)
		}
		if i == 2 {
			if seq := appendN(t, l, 5, 1); seq != 6 {
				t.Fatalf("the record after the loss is seq %d, want 6", seq)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if got := collect(t, dir, 5); len(got) != 1 || got[0].Seq != 6 {
		t.Fatalf("replay after the checkpoint = %+v, want seq 6 alone", got)
	}
}

// TestReplayPastLossBelowCheckpoint: replaying after the checkpoint at 5
// starts at the segment holding 6, so the jump from 3 to 6 below the
// checkpoint is not read as a gap; from 3 on, where the log lacks 4 and 5,
// replay still fails.
func TestReplayPastLossBelowCheckpoint(t *testing.T) {
	dir := lossBelowCheckpoint(t)
	if got := collect(t, dir, 5); len(got) != 1 || got[0].Seq != 6 || got[0].W != rec(5) {
		t.Fatalf("replay after the checkpoint = %+v, want seq 6 alone", got)
	}
	if _, err := Replay(dir, 3, func(uint64, graph.Write) error { return nil }); err == nil {
		t.Fatal("replay from seq 4 skipped the lost records 4 and 5")
	}
}
