package wal

import (
	"errors"
	"os"
	"testing"

	"sacsearch/internal/graph"
)

// nextBatch polls a cursor once, failing the test on error, and decodes the
// frames it handed out.
func nextBatch(t *testing.T, c *Cursor, max int) []logged {
	t.Helper()
	frames, n, err := c.Next(nil, max)
	if err != nil {
		t.Fatalf("cursor next: %v", err)
	}
	var out []logged
	for off := 0; off < len(frames); {
		fn, seq, w, ok := DecodeFrame(frames[off:])
		if !ok {
			t.Fatalf("cursor handed out an undecodable frame at byte %d", off)
		}
		out = append(out, logged{seq, w})
		off += fn
	}
	if len(out) != n {
		t.Fatalf("cursor counted %d frames, handed out %d", n, len(out))
	}
	return out
}

func TestCursorTailsLiveLog(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 0, 5)

	c, err := OpenCursor(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got := nextBatch(t, c, 100)
	if len(got) != 5 || got[0].Seq != 1 || got[4].Seq != 5 {
		t.Fatalf("first poll = %+v", got)
	}
	for i, r := range got {
		if r.W != rec(i) {
			t.Fatalf("record %d: %+v != %+v", i, r.W, rec(i))
		}
	}
	// Caught up: nothing new, no error.
	if again := nextBatch(t, c, 100); len(again) != 0 {
		t.Fatalf("caught-up poll returned %d records", len(again))
	}
	// Live appends show up on the next poll.
	appendN(t, l, 5, 7)
	more := nextBatch(t, c, 100)
	if len(more) != 7 || more[0].Seq != 6 || more[6].Seq != 12 {
		t.Fatalf("live tail poll = %+v", more)
	}
	if c.Pos() != 12 {
		t.Fatalf("pos = %d, want 12", c.Pos())
	}
	// max bounds one poll; the remainder arrives on the next.
	appendN(t, l, 12, 10)
	if part := nextBatch(t, c, 3); len(part) != 3 || part[2].Seq != 15 {
		t.Fatalf("bounded poll = %+v", part)
	}
	if rest := nextBatch(t, c, 100); len(rest) != 7 || rest[6].Seq != 22 {
		t.Fatalf("remainder poll = %+v", rest)
	}
}

func TestCursorResumesMidLog(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 20)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCursor(dir, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got := nextBatch(t, c, 100)
	if len(got) != 13 || got[0].Seq != 8 || got[12].Seq != 20 {
		t.Fatalf("resume poll = %d records, first %+v", len(got), got[0])
	}
}

func TestCursorFollowsRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 0, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 0, 64)
	if segs, _ := l.Stats(); segs < 3 {
		t.Fatalf("want ≥3 segments, got %d", segs)
	}
	c, err := OpenCursor(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got := nextBatch(t, c, 1000)
	if len(got) != 64 || got[63].Seq != 64 {
		t.Fatalf("rotation poll = %d records", len(got))
	}
	// Keep rotating while the cursor is live.
	appendN(t, l, 64, 64)
	var tail []logged
	for len(tail) < 64 {
		batch := nextBatch(t, c, 10)
		if len(batch) == 0 {
			t.Fatalf("cursor stalled at %d/64 tail records", len(tail))
		}
		tail = append(tail, batch...)
	}
	if tail[0].Seq != 65 || tail[63].Seq != 128 {
		t.Fatalf("tail spans %d..%d, want 65..128", tail[0].Seq, tail[63].Seq)
	}
}

func TestCursorTornTailWaits(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 3)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// A partial frame at the tail is an append in flight, not corruption:
	// the cursor reports caught-up and retries later.
	segs, _ := listSegments(dir)
	f, err := os.OpenFile(segs[0].path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x1d, 0x00}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	c, err := OpenCursor(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := nextBatch(t, c, 100); len(got) != 3 {
		t.Fatalf("poll over torn tail = %d records, want 3", len(got))
	}
	if again := nextBatch(t, c, 100); len(again) != 0 {
		t.Fatalf("torn-tail repoll returned %d records", len(again))
	}
}

func TestCursorGapOnTruncatedHistory(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 0, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 64)
	if err := l.TruncateThrough(30); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// A cursor wanting history behind the truncation horizon must fail with
	// ErrGap so the caller falls back to a snapshot, never skips.
	if _, err := OpenCursor(dir, 10); !errors.Is(err, ErrGap) {
		t.Fatalf("cursor across truncated history: err = %v, want ErrGap", err)
	}
	// At or past the horizon it works.
	c, err := OpenCursor(dir, 30)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got := nextBatch(t, c, 1000)
	if len(got) != 34 || got[0].Seq != 31 {
		t.Fatalf("post-horizon poll = %d records, first seq %d", len(got), got[0].Seq)
	}
}

func TestCursorGapOnSegmentRemovedUnderneath(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 0, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 64)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCursor(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := nextBatch(t, c, 4); len(got) != 4 {
		t.Fatalf("first poll = %d records", len(got))
	}
	// Remove the cursor's current segment: whatever the open handle still
	// yields, the cursor must end in ErrGap, never jump the hole.
	segs, _ := listSegments(dir)
	if err := os.Remove(segs[0].path); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		_, got, err := c.Next(nil, 1000)
		if err != nil {
			if !errors.Is(err, ErrGap) {
				t.Fatalf("removed-segment poll: err = %v, want ErrGap", err)
			}
			return
		}
		if got == 0 {
			t.Fatal("cursor idles over a removed segment instead of reporting ErrGap")
		}
	}
	t.Fatal("cursor never reported ErrGap after its segment was removed")
}

// The deletion-under-Replay satellites: Replay must fail loudly when a sealed
// segment vanishes, whether before the scan starts or while it is running.

func TestReplayMissingMiddleSegmentFailsLoudly(t *testing.T) {
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
	if err := os.Remove(segs[1].path); err != nil {
		t.Fatal(err)
	}
	var seen []uint64
	_, err = Replay(dir, 0, func(seq uint64, _ graph.Write) error {
		seen = append(seen, seq)
		return nil
	})
	if err == nil {
		t.Fatalf("replay over a missing middle segment succeeded, delivered %d records", len(seen))
	}
	// Nothing past the hole may have been delivered as contiguous history.
	for i, s := range seen {
		if s != uint64(i+1) {
			t.Fatalf("replay skipped the hole: delivered seq %d at position %d", s, i)
		}
	}
}

func TestReplayMissingFirstSegmentFailsLoudly(t *testing.T) {
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
	if err := os.Remove(segs[0].path); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(dir, 0, func(uint64, graph.Write) error { return nil }); err == nil {
		t.Fatal("replay with the first segment missing succeeded silently")
	}
}

func TestReplaySegmentDeletedMidReplayFailsLoudly(t *testing.T) {
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
	// Delete an upcoming sealed segment from inside the replay callback —
	// simulating a concurrent truncation racing an in-progress read.
	removed := false
	count := 0
	_, err = Replay(dir, 0, func(seq uint64, _ graph.Write) error {
		count++
		if !removed && seq == 2 {
			removed = true
			if err := os.Remove(segs[1].path); err != nil {
				t.Fatal(err)
			}
		}
		return nil
	})
	if err == nil {
		t.Fatalf("replay over a segment deleted mid-read succeeded, delivered %d records", count)
	}
}

// TestCursorGapBelowLostTail: a cursor that wants a record of the lost tail
// (4 or 5), or one whose chain runs into it (after 0, 2 or 3), fails at open
// with ErrGap, so a follower there takes a snapshot instead of failing on
// every Next; one after the checkpoint streams on.
func TestCursorGapBelowLostTail(t *testing.T) {
	dir := lossBelowCheckpoint(t)
	for _, after := range []uint64{0, 2, 3, 4} {
		if c, err := OpenCursor(dir, after); !errors.Is(err, ErrGap) {
			if c != nil {
				c.Close()
			}
			t.Fatalf("cursor after %d: err = %v, want ErrGap", after, err)
		}
	}
	c, err := OpenCursor(dir, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := nextBatch(t, c, 10); len(got) != 1 || got[0].Seq != 6 {
		t.Fatalf("cursor after the checkpoint = %+v, want seq 6", got)
	}
}

// flipInFrame returns a copy of a segment's bytes with one payload byte of
// its i-th frame (from 0) flipped, so the frame fails its CRC.
func flipInFrame(t *testing.T, seg []byte, i int) []byte {
	t.Helper()
	off := len(segMagic)
	for range i {
		n, _, _, ok := DecodeFrame(seg[off:])
		if !ok {
			t.Fatal("fixture: an undecodable frame")
		}
		off += n
	}
	bad := append([]byte(nil), seg...)
	bad[off+frameHeaderLen+2] ^= 0xff
	return bad
}

// TestCursorMidSegmentCorruptionFailsLoudly mirrors
// TestMidSegmentCorruptionFailsLoudly through OpenCursor and Next: one byte
// flipped in record 21 of 40 in the last segment is bit rot, not an append
// in flight. A cursor tailing the log hands out records 1–20 and then fails
// on that poll, never idling as caught up; a cursor opened on the damaged
// log fails at open. Neither answers ErrGap, which would send a follower to
// a snapshot of a leader that can no longer restart.
func TestCursorMidSegmentCorruptionFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 40)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	live, err := OpenCursor(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	segs, _ := listSegments(dir)
	full, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[0].path, flipInFrame(t, full, 20), 0o644); err != nil {
		t.Fatal(err)
	}
	frames, n, err := live.Next(nil, 100)
	if err == nil || errors.Is(err, ErrGap) {
		t.Fatalf("poll over a corrupt record: %d records, err = %v, want corruption", n, err)
	}
	if n != 20 || len(frames) == 0 || live.Pos() != 20 {
		t.Fatalf("poll over a corrupt record handed out %d records to seq %d, want 1..20", n, live.Pos())
	}
	if _, _, err := live.Next(nil, 100); err == nil {
		t.Fatal("a repoll over a corrupt record idles as caught up")
	}
	if c, err := OpenCursor(dir, 0); err == nil || errors.Is(err, ErrGap) {
		if c != nil {
			c.Close()
		}
		t.Fatalf("cursor opened over a corrupt record: err = %v, want corruption", err)
	}
}
