package wal

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
)

// ErrGap reports that a cursor's next record is no longer in the log: the
// segment holding it was truncated away (checkpoint-covered) or removed
// under an in-progress read. The reader cannot continue from its position —
// it must restart from a snapshot, never skip silently.
var ErrGap = errors.New("wal: history gap")

// Cursor tails a live log directory: it streams frames in sequence order,
// tolerating concurrent appends to the active segment (a partial frame at
// the tail is an in-progress write, retried on the next call) and following
// segment rotations. Unlike Replay it may run while the owning Log appends;
// it reads only CRC-valid complete frames, so it can never observe a torn
// batch as data. A Cursor is not safe for concurrent use.
//
// The replication shipper is the intended caller: one cursor per follower,
// polled for new records since the follower's acknowledged sequence. It
// hands out the frames' bytes as the log stores them, already checked (CRC,
// payload, seq chain), so the shipper forwards them without re-encoding.
type Cursor struct {
	dir    string
	f      *os.File
	first  uint64 // current segment's first sequence
	off    int64  // byte offset past the last complete frame
	expect uint64 // next sequence the current segment's chain must produce
	emit   uint64 // next sequence to deliver to the caller
	buf    []byte
}

// maxCursorRead bounds one Next call's read so a huge backlog streams in
// chunks instead of one giant allocation.
const maxCursorRead = 1 << 20

// OpenCursor positions a cursor to stream records with Seq > afterSeq from
// dir. It fails with ErrGap when the log no longer holds afterSeq+1 (the
// segments covering it were truncated) or the chain from there breaks
// before the active segment (a tail lost below a checkpoint, which Open
// resumes past in a new segment) — the caller must fall back to a full
// snapshot rather than resume past a hole.
func OpenCursor(dir string, afterSeq uint64) (*Cursor, error) {
	c := &Cursor{dir: dir, emit: afterSeq + 1}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		// Nothing written yet; the first Next call finds the segment once it
		// exists. Valid only when no history is being skipped.
		if afterSeq > 0 {
			return nil, fmt.Errorf("%w: log is empty, cursor wants seq %d", ErrGap, afterSeq+1)
		}
		return c, nil
	}
	idx := holding(segs, c.emit)
	if idx < 0 {
		return nil, fmt.Errorf("%w: log starts at seq %d, cursor wants %d", ErrGap, segs[0].first, c.emit)
	}
	// Each sealed segment from there on must end right before its successor
	// starts (an empty one, last 0, ends before it begins).
	for i := idx; i < len(segs)-1; i++ {
		last, _, err := scanSegment(segs[i].path, segs[i].first, false)
		if errors.Is(err, fs.ErrNotExist) || err == nil && max(last, segs[i].first-1)+1 != segs[i+1].first {
			return nil, fmt.Errorf("%w: the chain from seq %d breaks after segment %s", ErrGap, c.emit, segs[i].path)
		}
		if err != nil {
			return nil, err
		}
	}
	if err := c.open(segs[idx]); err != nil {
		return nil, err
	}
	return c, nil
}

// open switches the cursor to segment s, validating its magic.
func (c *Cursor) open(s segment) error {
	f, err := os.Open(s.path)
	if err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("%w: segment %s vanished", ErrGap, s.path)
		}
		return fmt.Errorf("wal: cursor opening %s: %w", s.path, err)
	}
	var magic [8]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil || magic != segMagic {
		f.Close()
		return fmt.Errorf("wal: cursor: %s: bad segment magic", s.path)
	}
	if c.f != nil {
		c.f.Close()
	}
	c.f = f
	c.first = s.first
	c.off = int64(len(segMagic))
	c.expect = s.first
	return nil
}

// Next appends to dst the frames of up to max records past the cursor's
// position, returning the extended buffer and how many frames it appended,
// without blocking: none means the cursor is caught up with the log (or a
// tail append is still in flight). Errors are permanent: ErrGap when needed
// history was truncated away, anything else is corruption.
func (c *Cursor) Next(dst []byte, max int) ([]byte, int, error) {
	got := 0
	for {
		if c.f == nil {
			segs, err := listSegments(c.dir)
			if err != nil || len(segs) == 0 {
				return dst, got, err
			}
			if segs[0].first > c.emit {
				return dst, got, fmt.Errorf("%w: log starts at seq %d, cursor wants %d", ErrGap, segs[0].first, c.emit)
			}
			if err := c.open(segs[0]); err != nil {
				return dst, got, err
			}
		}
		fi, err := c.f.Stat()
		if err != nil {
			return dst, got, fmt.Errorf("wal: cursor stat: %w", err)
		}
		leftover := 0
		if fi.Size() > c.off {
			need := fi.Size() - c.off
			capped := need > maxCursorRead
			if capped {
				need = maxCursorRead
			}
			if int64(cap(c.buf)) < need {
				c.buf = make([]byte, need)
			}
			rn, err := c.f.ReadAt(c.buf[:need], c.off)
			if err != nil && err != io.EOF {
				return dst, got, fmt.Errorf("wal: cursor read: %w", err)
			}
			data := c.buf[:rn]
			pos := 0
			for pos < len(data) {
				fn, seq, _, ok := DecodeFrame(data[pos:])
				if !ok {
					break
				}
				if seq != c.expect {
					return dst, got, fmt.Errorf("wal: cursor: %s: record seq %d, want %d", c.f.Name(), seq, c.expect)
				}
				c.expect++
				if seq >= c.emit {
					dst = append(dst, data[pos:pos+fn]...)
					got++
					c.emit = seq + 1
				}
				pos += fn
				c.off += int64(fn)
				if got >= max {
					return dst, got, nil
				}
			}
			leftover = len(data) - pos
			if capped {
				// More bytes exist past this chunk. A frame is at most a few
				// dozen bytes, so an unparseable full-size chunk is corruption,
				// not a torn tail; otherwise re-read from the new offset.
				if pos == 0 {
					return dst, got, fmt.Errorf("wal: cursor: corrupt record in segment %s at byte %d", segName(c.first), c.off)
				}
				continue
			}
		}
		// Nothing more parses here: either caught up on the active segment,
		// or the segment is sealed and the chain continues in its successor.
		advanced, err := c.advance(leftover)
		if err != nil {
			return dst, got, err
		}
		if !advanced {
			return dst, got, nil
		}
	}
}

// advance moves to the successor segment when the current one is sealed and
// fully consumed. leftover is the count of unparseable bytes at the current
// read position: on the active (last) segment that is an in-progress append;
// on a sealed segment it is corruption.
func (c *Cursor) advance(leftover int) (bool, error) {
	segs, err := listSegments(c.dir)
	if err != nil {
		return false, err
	}
	present := false
	var succ *segment
	for i := range segs {
		if segs[i].first == c.first {
			present = true
		}
		if segs[i].first > c.first && (succ == nil || segs[i].first < succ.first) {
			succ = &segs[i]
		}
	}
	if !present {
		return false, fmt.Errorf("%w: segment %s removed under cursor at seq %d", ErrGap, segName(c.first), c.expect)
	}
	if succ == nil {
		return false, nil // active segment: wait for more appends
	}
	if leftover > 0 {
		return false, fmt.Errorf("wal: cursor: corrupt record in sealed segment %s at byte %d", segName(c.first), c.off)
	}
	if succ.first != c.expect {
		return false, fmt.Errorf("wal: cursor: segment after %s starts at seq %d, want %d", segName(c.first), succ.first, c.expect)
	}
	return true, c.open(*succ)
}

// Pos returns the sequence of the last record delivered (the next Next call
// continues after it).
func (c *Cursor) Pos() uint64 { return c.emit - 1 }

// Close releases the cursor's file handle.
func (c *Cursor) Close() error {
	if c.f == nil {
		return nil
	}
	err := c.f.Close()
	c.f = nil
	return err
}
