package wal

import (
	"errors"
	"fmt"
	"io"
	"os"

	"sacsearch/internal/graph"
)

// ErrGap reports that a cursor's next record is no longer in the log: the
// segment holding it was truncated away (checkpoint-covered) or removed
// under an in-progress read. The reader cannot continue from its position —
// it must restart from a snapshot, never skip silently.
var ErrGap = errors.New("wal: history gap")

// Cursor tails a live log directory: it streams frames in sequence order,
// tolerating concurrent appends to the active segment and following segment
// rotations. It reads by recovery's rules, the log's one reader: frames run
// on in seq (WalkFrames), the bytes past a segment's last whole frame are
// judged by tail — an append in flight is waited for, corruption is an
// error on every poll — and the segment after by successor. It reads only
// CRC-valid complete frames, so it can never observe a torn batch as data.
// Replay and Open are cursors too. A Cursor is not safe for concurrent use.
//
// The replication shipper is the intended caller: one cursor per follower,
// polled for new records since the follower's acknowledged sequence. It
// hands out the frames' bytes as the log stores them, already checked (CRC,
// payload, seq chain), so the shipper forwards them without re-encoding.
type Cursor struct {
	dir    string
	f      *os.File
	first  uint64   // current segment's first sequence
	off    int64    // byte offset past the last complete frame
	expect uint64   // next sequence the chain must produce
	emit   uint64   // next sequence to deliver to the caller
	succ   *segment // the segment after the current one, once seen: the current one is sealed
	buf    []byte
}

// maxCursorRead bounds one read so a huge backlog streams in chunks instead
// of one giant allocation.
const maxCursorRead = 1 << 20

// OpenCursor positions a cursor to stream records with Seq > afterSeq from
// dir. It walks the chain from there to the end of the log once, by the
// rules Next reads it by, and fails with ErrGap when the log no longer holds
// afterSeq+1 (the segments covering it were truncated, or none is written
// yet while afterSeq > 0) or the chain breaks on the way (a tail lost below
// a checkpoint, which Open resumes past in a new segment) — the caller must
// fall back to a full snapshot rather than resume past a hole — and with
// the corruption it finds.
func OpenCursor(dir string, afterSeq uint64) (*Cursor, error) {
	probe := &Cursor{dir: dir, expect: afterSeq + 1}
	_, err := probe.walk(0, nil)
	if err == nil && probe.f == nil && afterSeq > 0 {
		err = fmt.Errorf("%w: log is empty, cursor wants seq %d", ErrGap, afterSeq+1)
	}
	probe.Close()
	if err != nil {
		return nil, err
	}
	return &Cursor{dir: dir, expect: afterSeq + 1, emit: afterSeq + 1}, nil
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
	c.Close()
	c.f, c.first, c.off, c.expect, c.succ = f, s.first, int64(len(segMagic)), s.first, nil
	return nil
}

// Next appends to dst the frames of up to max records past the cursor's
// position, returning the extended buffer and how many frames it appended,
// without blocking: none means the cursor is caught up with the log (or a
// tail append is still in flight). Errors are permanent: ErrGap when needed
// history was truncated away, anything else is corruption.
func (c *Cursor) Next(dst []byte, max int) ([]byte, int, error) {
	n, err := c.walk(max, func(frame []byte, _ uint64, _ graph.Write) error {
		dst = append(dst, frame...)
		return nil
	})
	return dst, n, err
}

// errFull ends a walk that has handed out as many records as asked for.
var errFull = errors.New("wal: cursor batch full")

// walk hands fn the records past the cursor's position in order, each with
// its frame, up to max of them, and returns how many it handed out. It
// reads on until the log's last segment has no whole frame left (an append
// may be in flight), an error, or max. A nil fn takes nothing: the walk
// only checks the chain to the end of the log.
func (c *Cursor) walk(max int, fn func(frame []byte, seq uint64, w graph.Write) error) (got int, err error) {
	whole := false // read the segment's whole remainder: a capped chunk began with no frame
	for {
		if c.f == nil {
			segs, err := listSegments(c.dir)
			if err != nil || len(segs) == 0 {
				return got, err // nothing written yet: the segment is found once it exists
			}
			i := holding(segs, c.expect)
			if i < 0 {
				return got, successor(segs[0], c.expect)
			}
			if err := c.open(segs[i]); err != nil {
				return got, err
			}
		}
		fi, err := c.f.Stat()
		if err != nil {
			return got, fmt.Errorf("wal: cursor stat: %w", err)
		}
		need := fi.Size() - c.off
		capped := need > maxCursorRead && !whole
		if capped {
			need = maxCursorRead
		}
		if int64(cap(c.buf)) < need {
			c.buf = make([]byte, need)
		}
		rn, err := c.f.ReadAt(c.buf[:need], c.off)
		if err != nil && err != io.EOF {
			return got, fmt.Errorf("wal: cursor read: %w", err)
		}
		data := c.buf[:rn]
		n, next, err := WalkFrames(data, c.expect, func(frame []byte, seq uint64, w graph.Write) error {
			if fn == nil || seq < c.emit {
				return nil
			}
			if got == max {
				return errFull
			}
			if err := fn(frame, seq, w); err != nil {
				return err
			}
			got, c.emit = got+1, seq+1
			return nil
		})
		if errors.Is(err, errSeq) {
			err = fmt.Errorf("%s at byte %d: %w", c.f.Name(), c.off+int64(n), err)
		}
		c.off, c.expect = c.off+int64(n), next
		if err != nil {
			if err == errFull {
				err = nil
			}
			return got, err
		}
		if capped {
			whole = n == 0 // else read on from the frame the chunk cut
			continue
		}
		whole = false
		if c.succ == nil {
			if c.succ, err = c.successorOf(); err != nil {
				return got, err
			}
			if c.succ != nil {
				continue // sealed now: what the read caught in flight is whole
			}
		}
		if err := tail(c.f.Name(), c.off, data[n:], c.succ != nil); err != nil || c.succ == nil {
			return got, err
		}
		if err := successor(*c.succ, c.expect); err != nil {
			return got, err
		}
		if err := c.open(*c.succ); err != nil {
			return got, err
		}
	}
}

// successorOf lists the log for the segment after the cursor's: nil while
// the cursor's is the last. The cursor's own gone is ErrGap: it was
// truncated away under the cursor.
func (c *Cursor) successorOf() (*segment, error) {
	segs, err := listSegments(c.dir)
	if err != nil {
		return nil, err
	}
	i := holding(segs, c.first)
	if i < 0 || segs[i].first != c.first {
		return nil, fmt.Errorf("%w: segment %s removed under cursor at seq %d", ErrGap, segName(c.first), c.expect)
	}
	if i+1 == len(segs) {
		return nil, nil
	}
	return &segs[i+1], nil
}

// tail is the log's one tail rule. rest is what follows the last whole
// frame of the segment at path, read to its end, from byte off. In a sealed
// segment any byte is corruption. In the last segment up to one largest
// frame, or zero padding, is an append a crash cut short (Open truncates
// it) or one still in flight (a cursor waits for it); more is corruption,
// over history that may hold acknowledged writes.
func tail(path string, off int64, rest []byte, sealed bool) error {
	if len(rest) == 0 || !sealed && (len(rest) <= frameHeaderLen+maxPayloadLen || allZero(rest)) {
		return nil
	}
	return fmt.Errorf("wal: corrupt record in %s at byte %d (%d bytes follow, sealed %t)", path, off, len(rest), sealed)
}

// successor is the log's one successor rule: the segment after one whose
// chain runs up to next must start at next. Starting later, it leaves a
// hole, history truncated away or lost: ErrGap. Starting earlier, it
// overlaps history the log already holds: corruption.
func successor(s segment, next uint64) error {
	if s.first > next {
		return fmt.Errorf("%w: segment %s starts at seq %d, want %d", ErrGap, s.path, s.first, next)
	}
	if s.first < next {
		return fmt.Errorf("wal: segment %s starts at seq %d, before %d", s.path, s.first, next)
	}
	return nil
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
