// Package wal implements the write-ahead log of the durable serving store:
// append-only segment files of graph.Write records (check-ins and
// friendship-edge changes), each record length-prefixed and CRC-32-protected,
// with segment rotation by size and a configurable fsync policy. The
// snapshot engine's writer loop appends one batch per publication (group
// commit: one fsync covers the whole batch), so under PolicyAlways a write
// that became visible to readers is also durable on disk. A record is a
// graph.Write plus the sequence number the log gives it; the sequence is the
// log's coordinate and travels beside the write (Append returns it, Replay
// and DecodeFrame hand it back), never inside it.
//
// On-disk layout (all integers little-endian):
//
//	wal-<firstSeq %020d>.seg          one file per segment
//	  magic   "SACWAL01"              (8 bytes, once per segment)
//	  frame*  repeated records:
//	    length  uint32                (payload bytes)
//	    crc     uint32                (IEEE CRC-32 of the payload)
//	    payload:
//	      seq   uint64                (global, strictly consecutive)
//	      kind  uint8                 (1 = check-in, 2 = edge)
//	      check-in: v int32, x float64 bits, y float64 bits
//	      edge:     v int32, w int32, insert uint8 (1 = add, 0 = remove)
//
// The log has one reader, and recovery, Replay, the replication Cursor and a
// follower applying shipped frames all read by its rules (cursor.go). Frames
// run on in seq from each segment's first (WalkFrames). What follows a
// segment's last whole frame is judged by one tail rule: in a sealed segment
// any byte is corruption; in the last one up to one largest frame, or zero
// padding, is an append a crash cut short (Open truncates it) or one still
// in flight (a cursor waits for it), and more is bit rot that may have eaten
// acknowledged writes. The segment after is judged by one successor rule: it
// starts at the next seq; later is a gap (ErrGap), earlier is corruption.
// Open, Replay and every cursor fail loudly on corruption rather than
// silently serving a hole in history.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
	"sacsearch/internal/telemetry"
)

// Policy selects when appended records reach stable storage.
type Policy string

const (
	// PolicyAlways fsyncs once per Append call (group commit): when Append
	// returns, every record in the batch is durable.
	PolicyAlways Policy = "always"
	// PolicyInterval fsyncs from a background ticker; a crash loses at most
	// the last interval of acknowledged writes.
	PolicyInterval Policy = "interval"
	// PolicyNever issues no fsync at all; durability is whatever the OS page
	// cache survives. Process crashes lose nothing (the data is in the
	// kernel), power loss may lose everything since the last checkpoint.
	PolicyNever Policy = "never"
)

// ParsePolicy validates a policy string from a flag or config file.
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case PolicyAlways, PolicyInterval, PolicyNever:
		return Policy(s), nil
	case "":
		return PolicyAlways, nil
	}
	return "", fmt.Errorf("wal: unknown fsync policy %q (want always, interval or never)", s)
}

// Record and KindCheckin are the names the benchmark module still spells
// for a logged write; they go when it moves to graph.Write.
type Record = graph.Write

const KindCheckin = graph.WriteCheckin

// Payload kind bytes. Both edge kinds share kindEdge and differ in the
// insert byte.
const (
	kindCheckin = 1
	kindEdge    = 2
)

const (
	frameHeaderLen = 8 // length (4) + crc (4)
	// maxPayloadLen bounds a frame's declared payload so a corrupted length
	// field cannot trigger a huge allocation or swallow megabytes of log.
	// The largest real payload is a check-in: seq(8)+kind(1)+v(4)+x(8)+y(8).
	maxPayloadLen  = 29
	checkinPayload = 29
	edgePayload    = 18 // seq(8)+kind(1)+v(4)+w(4)+insert(1)
)

var segMagic = [8]byte{'S', 'A', 'C', 'W', 'A', 'L', '0', '1'}

const segPrefix = "wal-"
const segSuffix = ".seg"

// NumberedName renders the zero-padded `<prefix><seq %020d><suffix>` file
// name shared by WAL segments and the store's checkpoints — zero padding
// keeps lexical directory order equal to sequence order.
func NumberedName(prefix string, seq uint64, suffix string) string {
	return fmt.Sprintf("%s%020d%s", prefix, seq, suffix)
}

// ParseNumberedName inverts NumberedName, rejecting anything that is not
// exactly a 20-digit sequence between the given prefix and suffix.
func ParseNumberedName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	if len(mid) != 20 {
		return 0, false
	}
	var seq uint64
	for _, c := range mid {
		if c < '0' || c > '9' {
			return 0, false
		}
		seq = seq*10 + uint64(c-'0')
	}
	return seq, true
}

func segName(firstSeq uint64) string { return NumberedName(segPrefix, firstSeq, segSuffix) }

func parseSegName(name string) (uint64, bool) {
	return ParseNumberedName(name, segPrefix, segSuffix)
}

// Options configures a Log. The zero value uses PolicyAlways, 16 MiB
// segments and a 100 ms flush interval.
type Options struct {
	// Policy selects the fsync policy (default PolicyAlways).
	Policy Policy
	// SegmentBytes rotates to a new segment file once the active one exceeds
	// this size (default 16 MiB).
	SegmentBytes int64
	// FlushInterval paces the background fsync under PolicyInterval
	// (default 100 ms).
	FlushInterval time.Duration
	// Metrics, when non-nil, receives the log's instrumentation: an
	// fsync-latency histogram and segment/bytes/last-seq gauges read at
	// scrape time.
	Metrics *telemetry.Registry
}

func (o Options) policy() Policy {
	if o.Policy == "" {
		return PolicyAlways
	}
	return o.Policy
}

func (o Options) segmentBytes() int64 {
	if o.SegmentBytes > 0 {
		return o.SegmentBytes
	}
	return 16 << 20
}

func (o Options) flushInterval() time.Duration {
	if o.FlushInterval > 0 {
		return o.FlushInterval
	}
	return 100 * time.Millisecond
}

// segment is one on-disk log file.
type segment struct {
	path  string
	first uint64 // seq of the first record this segment may hold
	size  int64
}

// Log is an append-only record log over segment files in one directory.
// Append/TruncateThrough/Stats/Close are safe for concurrent use.
type Log struct {
	dir string
	opt Options

	mu      sync.Mutex
	f       *os.File // active segment, opened for append
	active  segment
	sealed  []segment // older segments, ascending by first seq
	lastSeq uint64
	dirty   bool  // unsynced appends (PolicyInterval / PolicyNever)
	err     error // latched I/O or fsync failure; all later appends fail

	buf []byte // append scratch, one batch's frames

	fsyncDur *telemetry.Histogram // nil-safe; observed around every fsync

	stopFlush chan struct{}
	flushDone chan struct{}
}

// Open scans dir for segments, validates them, repairs a torn tail, and
// opens the log for appending. startSeq seeds the sequence numbering when
// the directory holds no segments (the newest checkpoint's sequence, so the
// chain continues across truncations); with existing segments the recovered
// last sequence wins and startSeq only bounds it from below.
func Open(dir string, startSeq uint64, opt Options) (*Log, error) {
	if _, err := ParsePolicy(string(opt.policy())); err != nil {
		return nil, err
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opt: opt, lastSeq: startSeq}
	if len(segs) == 0 {
		if err := l.createSegment(startSeq + 1); err != nil {
			return nil, err
		}
	} else {
		// Recovery reads the log as a cursor does, handing out nothing. A gap
		// between two segments is a tail lost below a checkpoint: Open
		// resumes past it, and Replay judges it against the checkpoint.
		c := &Cursor{dir: dir, expect: segs[0].first}
		defer c.Close()
		for {
			_, err := c.walk(0, nil)
			if errors.Is(err, ErrGap) && c.succ != nil {
				err = c.open(*c.succ)
			} else if err == nil {
				break
			}
			if err != nil {
				return nil, err
			}
		}
		// The walk ended in the last segment, at the end of its last whole
		// frame: cut what the tail rule let pass, so new frames land there
		// instead of interleaving with garbage. A sealed segment is whole.
		last := &segs[len(segs)-1]
		if err := os.Truncate(last.path, c.off); err != nil {
			return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", last.path, err)
		}
		last.size = c.off
		for i := range segs[:len(segs)-1] {
			fi, err := os.Stat(segs[i].path)
			if err != nil {
				return nil, fmt.Errorf("wal: %w", err)
			}
			segs[i].size = fi.Size()
		}
		l.active, l.sealed = *last, segs[:len(segs)-1]
		f, err := os.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: opening active segment: %w", err)
		}
		l.f = f
		// The chain never moves backwards past startSeq: a log whose tail
		// records were lost (power loss under a lax fsync policy zeroing the
		// active segment) may end below the checkpoint that seeded
		// startSeq — the checkpoint already contains those records' effects,
		// so the right resume point is still startSeq. Regressing would hand
		// out already-covered sequence numbers to new writes, and the next
		// recovery would silently skip them as "before the checkpoint".
		l.lastSeq = max(startSeq, c.expect-1)
		if c.expect <= startSeq {
			// The last segment cannot take startSeq+1 next (an empty one an
			// earlier Open named there can, and is resumed in): seal it and
			// start a fresh segment named at the resume point.
			if err := l.createSegment(startSeq + 1); err != nil {
				return nil, err
			}
		}
	}
	if l.opt.policy() == PolicyInterval {
		l.stopFlush = make(chan struct{})
		l.flushDone = make(chan struct{})
		go l.flusher()
	}
	if reg := opt.Metrics; reg != nil {
		l.fsyncDur = reg.Histogram("sac_wal_fsync_duration_seconds",
			"WAL fsync latency (one group commit under PolicyAlways).", nil)
		reg.GaugeFunc("sac_wal_segments", "WAL segment files on disk.", func() float64 {
			n, _ := l.Stats()
			return float64(n)
		})
		reg.GaugeFunc("sac_wal_bytes", "WAL bytes on disk across all segments.", func() float64 {
			_, b := l.Stats()
			return float64(b)
		})
		reg.GaugeFunc("sac_wal_last_seq", "Sequence of the newest appended WAL record.", func() float64 {
			return float64(l.LastSeq())
		})
	}
	return l, nil
}

// listSegments returns dir's segment files ascending by first seq.
func listSegments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: reading %s: %w", dir, err)
	}
	var segs []segment
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		first, ok := parseSegName(e.Name())
		if !ok {
			continue
		}
		segs = append(segs, segment{path: filepath.Join(dir, e.Name()), first: first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}

// createSegment seals the active segment (if any) and starts a new one whose
// name records the first sequence it will hold.
func (l *Log) createSegment(firstSeq uint64) error {
	if l.f != nil {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: syncing sealed segment: %w", err)
		}
		if err := l.f.Close(); err != nil {
			return fmt.Errorf("wal: closing sealed segment: %w", err)
		}
		l.sealed = append(l.sealed, l.active)
		l.f = nil
	}
	path := filepath.Join(l.dir, segName(firstSeq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	if _, err := f.Write(segMagic[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: writing segment magic: %w", err)
	}
	if err := SyncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.active = segment{path: path, first: firstSeq, size: int64(len(segMagic))}
	return nil
}

// Append assigns consecutive sequence numbers to ws, writes them as one
// contiguous byte run and applies the fsync policy once — the group commit.
// It returns the last assigned sequence.
// After any I/O or fsync failure the log is poisoned: the failed batch and
// every later Append return the error, so a caller can never treat a
// non-durable write as committed.
func (l *Log) Append(ws []graph.Write) (uint64, error) {
	if len(ws) == 0 {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.lastSeq, l.err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.lastSeq, l.err
	}
	l.buf = l.buf[:0]
	for _, w := range ws {
		l.lastSeq++
		l.buf = EncodeFrame(l.buf, l.lastSeq, w)
	}
	if _, err := l.f.Write(l.buf); err != nil {
		l.err = fmt.Errorf("wal: append: %w", err)
		return l.lastSeq, l.err
	}
	l.active.size += int64(len(l.buf))
	switch l.opt.policy() {
	case PolicyAlways:
		start := time.Now()
		if err := l.f.Sync(); err != nil {
			l.err = fmt.Errorf("wal: fsync: %w", err)
			return l.lastSeq, l.err
		}
		l.fsyncDur.Observe(time.Since(start).Seconds())
	default:
		l.dirty = true
	}
	if l.active.size >= l.opt.segmentBytes() {
		if err := l.createSegment(l.lastSeq + 1); err != nil {
			l.err = err
			return l.lastSeq, l.err
		}
	}
	return l.lastSeq, nil
}

// Sync forces buffered appends to stable storage regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.err != nil {
		return l.err
	}
	if l.f == nil {
		return nil
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("wal: fsync: %w", err)
		return l.err
	}
	l.fsyncDur.Observe(time.Since(start).Seconds())
	l.dirty = false
	return nil
}

// flusher is the PolicyInterval background fsync loop.
func (l *Log) flusher() {
	defer close(l.flushDone)
	t := time.NewTicker(l.opt.flushInterval())
	defer t.Stop()
	for {
		select {
		case <-l.stopFlush:
			return
		case <-t.C:
			l.mu.Lock()
			if l.dirty && l.err == nil {
				_ = l.syncLocked()
			}
			l.mu.Unlock()
		}
	}
}

// LastSeq returns the sequence of the newest appended (or recovered) record.
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastSeq
}

// Stats reports the segment count and total on-disk bytes.
func (l *Log) Stats() (segments int, bytes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.sealed {
		bytes += s.size
	}
	return len(l.sealed) + 1, bytes + l.active.size
}

// Policy returns the effective fsync policy.
func (l *Log) Policy() Policy { return l.opt.policy() }

// TruncateThrough removes sealed segments whose records are all ≤ seq —
// they are fully covered by a checkpoint. The active segment is never
// removed; records ≤ seq inside retained segments are skipped on replay.
func (l *Log) TruncateThrough(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	kept := l.sealed[:0]
	removed := false
	for i, s := range l.sealed {
		// Segment i's records end right before the next segment's first seq.
		next := l.active.first
		if i+1 < len(l.sealed) {
			next = l.sealed[i+1].first
		}
		if next-1 <= seq {
			if err := os.Remove(s.path); err != nil {
				l.sealed = append(kept, l.sealed[i:]...)
				return fmt.Errorf("wal: removing covered segment: %w", err)
			}
			removed = true
			continue
		}
		kept = append(kept, s)
	}
	l.sealed = kept
	if removed {
		return SyncDir(l.dir)
	}
	return nil
}

// Close flushes and closes the active segment. The log must not be used
// afterwards.
func (l *Log) Close() error {
	if l.stopFlush != nil {
		close(l.stopFlush)
		<-l.flushDone
		l.stopFlush = nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return l.err
	}
	syncErr := l.syncLocked()
	closeErr := l.f.Close()
	l.f = nil
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// Replay streams every record with seq > afterSeq, in order, to fn: it is a
// cursor at afterSeq drained to the end of the log, read by the same rules.
// It starts in the segment holding afterSeq+1, so a jump below it (a tail
// lost under a checkpoint, which Open resumes past) is no gap. From there
// the chain must run on: a log that no longer holds afterSeq+1 while it
// holds newer records, or a segment missing later on, is ErrGap, and
// recovery must fail rather than skip history. Stops early if fn errs.
func Replay(dir string, afterSeq uint64, fn func(seq uint64, w graph.Write) error) (replayed int, err error) {
	c := &Cursor{dir: dir, expect: afterSeq + 1, emit: afterSeq + 1}
	defer c.Close()
	return c.walk(math.MaxInt, func(_ []byte, seq uint64, w graph.Write) error { return fn(seq, w) })
}

// holding returns the index of the segment of segs (ascending) that holds
// seq, if any: the last one starting at or before it (a fresh rotation may
// name a segment exactly seq). -1 when every segment starts after seq.
func holding(segs []segment, seq uint64) int {
	return sort.Search(len(segs), func(i int) bool { return segs[i].first > seq }) - 1
}

// errSeq marks a frame out of sequence: corruption, never a torn tail.
var errSeq = errors.New("wal: record out of sequence")

// WalkFrames is the log's one frame reader. It decodes the frames at the
// start of data in order, the first of which must carry seq next, and hands
// each to fn with its bytes. It stops at the first byte no frame parses
// from, returning the bytes the frames fn took span and the seq the frame
// after them must carry. A frame out of sequence stops it with an error, and
// so does fn's, before the frame fn refused. Whether bytes left unparsed
// are a torn tail or corruption is the caller's to judge: tail, for a
// segment.
func WalkFrames(data []byte, next uint64, fn func(frame []byte, seq uint64, w graph.Write) error) (n int, _ uint64, err error) {
	for n < len(data) {
		size, seq, w, ok := DecodeFrame(data[n:])
		if !ok {
			break
		}
		if seq != next {
			return n, next, fmt.Errorf("%w: seq %d, want %d", errSeq, seq, next)
		}
		if err := fn(data[n:n+size], seq, w); err != nil {
			return n, next, err
		}
		n += size
		next++
	}
	return n, next, nil
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// EncodeFrame appends the frame of write w at sequence seq — length,
// CRC-32, payload, exactly the bytes a segment file stores — to buf. The
// replication shipper forwards these bytes as the cursor read them, so
// followers ingest the same CRC-framed, gap-checked format recovery
// validates.
func EncodeFrame(buf []byte, seq uint64, w graph.Write) []byte {
	var payload [maxPayloadLen]byte
	binary.LittleEndian.PutUint64(payload[0:], seq)
	var n int
	switch w.Kind {
	case graph.WriteCheckin:
		payload[8] = kindCheckin
		binary.LittleEndian.PutUint32(payload[9:], uint32(w.V))
		binary.LittleEndian.PutUint64(payload[13:], math.Float64bits(w.Loc.X))
		binary.LittleEndian.PutUint64(payload[21:], math.Float64bits(w.Loc.Y))
		n = checkinPayload
	case graph.WriteAddEdge, graph.WriteRemoveEdge:
		payload[8] = kindEdge
		binary.LittleEndian.PutUint32(payload[9:], uint32(w.V))
		binary.LittleEndian.PutUint32(payload[13:], uint32(w.W))
		if w.Kind == graph.WriteAddEdge {
			payload[17] = 1
		}
		n = edgePayload
	default:
		panic(fmt.Sprintf("wal: unknown write kind %d", w.Kind))
	}
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(n))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload[:n]))
	buf = append(buf, hdr[:]...)
	return append(buf, payload[:n]...)
}

// DecodeFrame parses one frame at the start of data, returning the bytes
// consumed, the record's sequence and its write. ok=false on short data, a
// bad length field, a CRC mismatch or an undecodable payload — the caller
// decides whether that is a torn tail to wait out or corruption to reject.
//
// Vertex ids are read back as the int32 they were written from, so a frame
// never holds an id wider than graph.V; one that reads negative is refused
// by the applier's Write.Check, not here.
func DecodeFrame(data []byte) (n int, seq uint64, w graph.Write, ok bool) {
	if len(data) < frameHeaderLen {
		return 0, 0, w, false
	}
	length := binary.LittleEndian.Uint32(data)
	if length == 0 || length > maxPayloadLen || int(length) > len(data)-frameHeaderLen {
		return 0, 0, w, false
	}
	p := data[frameHeaderLen : frameHeaderLen+int(length)]
	if crc32.ChecksumIEEE(p) != binary.LittleEndian.Uint32(data[4:]) || len(p) < 9 {
		return 0, 0, w, false
	}
	seq = binary.LittleEndian.Uint64(p)
	switch {
	case p[8] == kindCheckin && len(p) == checkinPayload:
		w = graph.Write{Kind: graph.WriteCheckin, V: graph.V(binary.LittleEndian.Uint32(p[9:])), Loc: geom.Point{
			X: math.Float64frombits(binary.LittleEndian.Uint64(p[13:])),
			Y: math.Float64frombits(binary.LittleEndian.Uint64(p[21:])),
		}}
	// EncodeFrame writes an insert byte of 0 or 1; any other value is not a
	// frame this log produced, and reading it as a remove would apply a
	// write nobody made.
	case p[8] == kindEdge && len(p) == edgePayload && p[17] <= 1:
		w = graph.Write{Kind: graph.WriteRemoveEdge,
			V: graph.V(binary.LittleEndian.Uint32(p[9:])), W: graph.V(binary.LittleEndian.Uint32(p[13:]))}
		if p[17] == 1 {
			w.Kind = graph.WriteAddEdge
		}
	default:
		return 0, 0, graph.Write{}, false
	}
	return frameHeaderLen + int(length), seq, w, true
}

// syncDir fsyncs a directory so segment creation, removal and checkpoint
// renames survive power loss, not just process death.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: opening dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: syncing dir: %w", err)
	}
	return nil
}
