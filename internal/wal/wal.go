// Package wal implements the write-ahead log of the durable serving store:
// append-only segment files of check-in and friendship-edge records, each
// record length-prefixed and CRC-32-protected, with segment rotation by size
// and a configurable fsync policy. The snapshot engine's writer loop appends
// one batch per publication (group commit: one fsync covers the whole
// batch), so under PolicyAlways a write that became visible to readers is
// also durable on disk.
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
//	      edge:     u int32, v int32, insert uint8
//
// Recovery scans segments in order, validating every frame and the seq
// chain. A damaged frame at the very tail of the last segment is a torn
// write — the crash interrupted an append — and is tolerated: the log is
// truncated to the last valid frame and appends resume there. A damaged
// frame anywhere else (an earlier segment, or followed by more data that is
// not zero padding) is bit rot that may have eaten acknowledged writes, and
// Open fails loudly rather than silently serving a hole in history.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
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

// Kind discriminates record payloads.
type Kind uint8

const (
	// KindCheckin is one vertex location update.
	KindCheckin Kind = 1
	// KindEdge is one friendship-edge insertion or deletion.
	KindEdge Kind = 2
)

// Record is one logged graph mutation.
type Record struct {
	Seq  uint64 // assigned by Append; strictly consecutive across segments
	Kind Kind

	V   graph.V    // KindCheckin: the vertex
	Loc geom.Point // KindCheckin: its new location

	U, W   graph.V // KindEdge: the endpoints
	Insert bool    // KindEdge: insert (true) or delete
}

const (
	frameHeaderLen = 8 // length (4) + crc (4)
	// maxPayloadLen bounds a frame's declared payload so a corrupted length
	// field cannot trigger a huge allocation or swallow megabytes of log.
	// The largest real payload is a check-in: seq(8)+kind(1)+v(4)+x(8)+y(8).
	maxPayloadLen  = 29
	checkinPayload = 29
	edgePayload    = 18 // seq(8)+kind(1)+u(4)+v(4)+insert(1)
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
// Append/TruncateThrough/Stats/Close are safe for concurrent use; Replay
// reads the files directly and must not race with Append (recovery runs it
// before serving starts).
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
	segLast := uint64(0) // newest seq found across segments
	for i := range segs {
		isLast := i == len(segs)-1
		last, validSize, err := scanSegment(segs[i].path, segs[i].first, isLast)
		if err != nil {
			return nil, err
		}
		if last > 0 {
			if last < segLast {
				// A segment ending before its predecessor would mean the
				// files were shuffled; listSegments ordering makes this a
				// directory-level inconsistency.
				return nil, fmt.Errorf("wal: segment %s ends at seq %d, before %d", segs[i].path, last, segLast)
			}
			segLast = last
		}
		segs[i].size = validSize
		if isLast {
			// Repair the torn tail so new frames land after the last valid
			// one instead of interleaving with garbage.
			if fi, err := os.Stat(segs[i].path); err == nil && fi.Size() > validSize {
				if err := os.Truncate(segs[i].path, validSize); err != nil {
					return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", segs[i].path, err)
				}
			}
		}
	}
	// The chain never moves backwards past startSeq: a log whose tail
	// records were lost (power loss under a lax fsync policy zeroing the
	// active segment) may scan to a seq below the checkpoint that seeded
	// startSeq — the checkpoint already contains those records' effects, so
	// the right resume point is still startSeq. Regressing would hand out
	// already-covered sequence numbers to new writes, and the next recovery
	// would silently skip them as "before the checkpoint".
	resumePastLoss := len(segs) > 0 && segLast < l.lastSeq
	if segLast > l.lastSeq {
		l.lastSeq = segLast
	}
	if len(segs) == 0 {
		if err := l.createSegment(l.lastSeq + 1); err != nil {
			return nil, err
		}
	} else {
		l.active = segs[len(segs)-1]
		l.sealed = segs[:len(segs)-1]
		f, err := os.OpenFile(l.active.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: opening active segment: %w", err)
		}
		l.f = f
		if resumePastLoss {
			// The surviving segments end before the resume point, so the
			// next record (lastSeq+1) cannot extend their seq chain — seal
			// them and start a fresh segment named at the resume point.
			if err := l.createSegment(l.lastSeq + 1); err != nil {
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

// Append assigns consecutive sequence numbers to recs (filling in their Seq
// fields), writes them as one contiguous byte run and applies the fsync
// policy once — the group commit. It returns the last assigned sequence.
// After any I/O or fsync failure the log is poisoned: the failed batch and
// every later Append return the error, so a caller can never treat a
// non-durable write as committed.
func (l *Log) Append(recs []Record) (uint64, error) {
	if len(recs) == 0 {
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
	for i := range recs {
		l.lastSeq++
		recs[i].Seq = l.lastSeq
		l.buf = appendFrame(l.buf, &recs[i])
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

// Replay streams every valid record with Seq > afterSeq, in order, to fn.
// It verifies the chain is gap-free: when the log holds records newer than
// afterSeq, the first one replayed must be afterSeq+1 — anything else means
// a needed segment was lost, and recovery must fail rather than skip
// history. Stops early if fn returns an error.
func Replay(dir string, afterSeq uint64, fn func(Record) error) (replayed int, err error) {
	segs, err := listSegments(dir)
	if err != nil {
		return 0, err
	}
	expect := uint64(0) // next seq the chain must produce; 0 = not yet anchored
	for i, s := range segs {
		isLast := i == len(segs)-1
		_, err := scanRecords(s.path, s.first, isLast, func(r Record) error {
			if expect == 0 {
				expect = r.Seq
			} else if r.Seq != expect {
				return fmt.Errorf("wal: sequence gap in %s: got %d, want %d", s.path, r.Seq, expect)
			}
			expect = r.Seq + 1
			if r.Seq <= afterSeq {
				return nil
			}
			if replayed == 0 && r.Seq != afterSeq+1 {
				return fmt.Errorf("wal: history gap: replay needs seq %d, log starts at %d", afterSeq+1, r.Seq)
			}
			replayed++
			return fn(r)
		})
		if err != nil {
			return replayed, err
		}
	}
	return replayed, nil
}

// scanSegment validates a whole segment in one pass, returning its last
// record's seq (0 when empty) and the byte length of the valid prefix.
func scanSegment(path string, firstSeq uint64, isLast bool) (lastSeq uint64, validSize int64, err error) {
	validSize, err = scanRecords(path, firstSeq, isLast, func(r Record) error {
		lastSeq = r.Seq
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	return lastSeq, validSize, nil
}

// nextFrame parses one frame at off, returning the offset past it. ok=false
// on any framing failure (short data, bad length, CRC mismatch).
func nextFrame(data []byte, off int64) (next int64, rec Record, ok bool) {
	if off+frameHeaderLen > int64(len(data)) {
		return off, rec, false
	}
	length := binary.LittleEndian.Uint32(data[off:])
	crc := binary.LittleEndian.Uint32(data[off+4:])
	if length == 0 || length > maxPayloadLen {
		return off, rec, false
	}
	end := off + frameHeaderLen + int64(length)
	if end > int64(len(data)) {
		return off, rec, false
	}
	payload := data[off+frameHeaderLen : end]
	if crc32.ChecksumIEEE(payload) != crc {
		return off, rec, false
	}
	r, err := decodePayload(payload)
	if err != nil {
		return off, rec, false
	}
	return end, r, true
}

// scanRecords walks one segment file frame by frame, returning the byte
// offset past the last valid frame. A framing failure at the tail of the
// last segment is tolerated (torn write); one followed by more non-zero
// data, or in a sealed segment, is corruption and errors.
func scanRecords(path string, firstSeq uint64, isLast bool, fn func(Record) error) (validEnd int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("wal: reading %s: %w", path, err)
	}
	if int64(len(data)) < int64(len(segMagic)) || [8]byte(data[:8]) != segMagic {
		return 0, fmt.Errorf("wal: %s: bad segment magic", path)
	}
	off := int64(len(segMagic))
	expect := firstSeq
	for off < int64(len(data)) {
		next, rec, ok := nextFrame(data, off)
		if !ok {
			if !isLast {
				return off, fmt.Errorf("wal: corrupt record in sealed segment %s at byte %d", path, off)
			}
			// A torn final append occupies less than one max-size frame; a
			// larger damaged region, unless it is all zero padding, means
			// valid history was overwritten — refuse to guess.
			rest := data[off:]
			if int64(len(rest)) > frameHeaderLen+maxPayloadLen && !allZero(rest) {
				return off, fmt.Errorf("wal: corrupt record mid-segment %s at byte %d (%d bytes follow)", path, off, len(rest))
			}
			return off, nil
		}
		if rec.Seq != expect {
			return off, fmt.Errorf("wal: %s: record seq %d, want %d", path, rec.Seq, expect)
		}
		expect++
		if err := fn(rec); err != nil {
			return off, err
		}
		off = next
	}
	return off, nil
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// EncodeFrame appends one record's wire frame — length, CRC-32, payload,
// exactly the bytes a segment file stores — to buf. The replication shipper
// reuses it so followers ingest the same CRC-framed, gap-checked format
// recovery validates.
func EncodeFrame(buf []byte, r *Record) []byte { return appendFrame(buf, r) }

// DecodeFrame parses one frame at the start of data, returning the bytes
// consumed. ok=false on short data, a bad length field, a CRC mismatch or an
// undecodable payload — the caller decides whether that is a torn tail to
// wait out or corruption to reject.
func DecodeFrame(data []byte) (n int, r Record, ok bool) {
	next, rec, ok := nextFrame(data, 0)
	if !ok {
		return 0, rec, false
	}
	return int(next), rec, true
}

// appendFrame encodes one record (Seq already assigned) onto buf.
func appendFrame(buf []byte, r *Record) []byte {
	var payload [maxPayloadLen]byte
	binary.LittleEndian.PutUint64(payload[0:], r.Seq)
	payload[8] = byte(r.Kind)
	var n int
	switch r.Kind {
	case KindCheckin:
		binary.LittleEndian.PutUint32(payload[9:], uint32(r.V))
		binary.LittleEndian.PutUint64(payload[13:], math.Float64bits(r.Loc.X))
		binary.LittleEndian.PutUint64(payload[21:], math.Float64bits(r.Loc.Y))
		n = checkinPayload
	case KindEdge:
		binary.LittleEndian.PutUint32(payload[9:], uint32(r.U))
		binary.LittleEndian.PutUint32(payload[13:], uint32(r.W))
		if r.Insert {
			payload[17] = 1
		}
		n = edgePayload
	default:
		panic(fmt.Sprintf("wal: unknown record kind %d", r.Kind))
	}
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(n))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload[:n]))
	buf = append(buf, hdr[:]...)
	return append(buf, payload[:n]...)
}

// decodePayload parses a CRC-validated payload.
func decodePayload(p []byte) (Record, error) {
	var r Record
	if len(p) < 9 {
		return r, io.ErrUnexpectedEOF
	}
	r.Seq = binary.LittleEndian.Uint64(p[0:])
	r.Kind = Kind(p[8])
	switch r.Kind {
	case KindCheckin:
		if len(p) != checkinPayload {
			return r, fmt.Errorf("wal: check-in payload is %d bytes, want %d", len(p), checkinPayload)
		}
		r.V = graph.V(binary.LittleEndian.Uint32(p[9:]))
		r.Loc.X = math.Float64frombits(binary.LittleEndian.Uint64(p[13:]))
		r.Loc.Y = math.Float64frombits(binary.LittleEndian.Uint64(p[21:]))
	case KindEdge:
		if len(p) != edgePayload {
			return r, fmt.Errorf("wal: edge payload is %d bytes, want %d", len(p), edgePayload)
		}
		r.U = graph.V(binary.LittleEndian.Uint32(p[9:]))
		r.W = graph.V(binary.LittleEndian.Uint32(p[13:]))
		// appendFrame writes 0 or 1; any other byte is not a frame this log
		// produced, and reading it as a delete would apply a write nobody made.
		if p[17] > 1 {
			return r, fmt.Errorf("wal: edge insert flag is %d, want 0 or 1", p[17])
		}
		r.Insert = p[17] == 1
	default:
		return r, fmt.Errorf("wal: unknown record kind %d", r.Kind)
	}
	return r, nil
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
