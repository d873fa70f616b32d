// Package store is the durable spatial-graph store: it wraps the snapshot
// engine (internal/snapshot) with a write-ahead log (internal/wal) and
// periodic checkpoints, so the serving state survives restarts and crashes.
//
// Write path — group commit through the engine's writer loop. Every write is
// a graph.Write, and the batch the engine applied is the batch the log
// appends, with no conversion between them:
//
//	CheckIn / UpdateEdge ──► writer applies the batch to the mutable graph
//	                     ──► persist hook appends the batch to the WAL
//	                         (one fsync per published batch under "always")
//	                     ──► snapshot published; waiters released
//
// so a write that became visible to readers is already in the log, and under
// FsyncAlways already on disk: write-visible implies durable.
//
// Background, a checkpointer periodically serializes the current published
// snapshot with graph.WriteBinary into checkpoint-<seq>.ckpt (seq = the
// snapshot's WAL sequence), keeps the newest two checkpoints, and truncates
// WAL segments fully covered by the older retained one — recovery can always
// fall back one checkpoint without hitting a history gap.
//
// Open(dataDir) recovers: newest valid checkpoint (falling back to the
// previous one if the newest is damaged), then the WAL tail replayed onto it
// with graph.Apply — tolerating a torn final record, refusing loudly on
// mid-log corruption, missing history, or a record that does not change the
// state it replays onto (the leader logs only writes that do, so such a
// record means the log and the checkpoint diverged) — and resumes the engine
// with the recovered sequence, so epochs and WAL seqs stay monotonic across
// restarts.
package store

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
	"sacsearch/internal/snapshot"
	"sacsearch/internal/telemetry"
	"sacsearch/internal/wal"
)

// FsyncPolicy re-exports the WAL fsync policy at the store boundary.
type FsyncPolicy = wal.Policy

// Fsync policy choices.
const (
	FsyncAlways   = wal.PolicyAlways
	FsyncInterval = wal.PolicyInterval
	FsyncNever    = wal.PolicyNever
)

// ParseFsyncPolicy validates a policy string from a flag.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) { return wal.ParsePolicy(s) }

// Options configures a Store. The zero value (plus Init for a first boot)
// serves: fsync always, 16 MiB segments, a checkpoint every minute.
type Options struct {
	// Init is the graph a first boot starts from, used only when dataDir
	// holds no recoverable state; the store takes ownership of it. Opening
	// an empty directory with a nil Init fails.
	Init *graph.Graph
	// Fsync selects when WAL appends reach stable storage (default
	// FsyncAlways). See the wal package for the trade-offs.
	Fsync FsyncPolicy
	// SegmentBytes rotates WAL segments past this size (default 16 MiB).
	SegmentBytes int64
	// CheckpointInterval is the background checkpoint period (default 1m;
	// negative disables the timer).
	CheckpointInterval time.Duration
	// CheckpointEvents additionally triggers a checkpoint once this many WAL
	// records accumulate past the last one (0 disables the event trigger).
	CheckpointEvents uint64
	// Metrics, when non-nil, instruments the store and is forwarded to the
	// WAL and engine it owns: fsync and publish latency histograms,
	// checkpoint duration, segment gauges.
	Metrics *telemetry.Registry
}

func (o Options) checkpointInterval() time.Duration {
	if o.CheckpointInterval == 0 {
		return time.Minute
	}
	return o.CheckpointInterval
}

// Stats is the durability status /v1/health reports.
type Stats struct {
	// WalSegments and WalBytes size the live log.
	WalSegments int   `json:"walSegments"`
	WalBytes    int64 `json:"walBytes"`
	// WalLastSeq is the newest logged record's sequence.
	WalLastSeq uint64 `json:"walLastSeq"`
	// LastCheckpointSeq is the WAL sequence the newest checkpoint covers;
	// recovery replays only records after it.
	LastCheckpointSeq uint64 `json:"lastCheckpointSeq"`
	// FsyncPolicy is the effective policy name.
	FsyncPolicy string `json:"fsyncPolicy"`
	// Recovered reports whether Open rebuilt state from disk (vs Init), and
	// ReplayedRecords how many WAL records that replay applied.
	Recovered       bool `json:"recovered"`
	ReplayedRecords int  `json:"replayedRecords"`
	// CheckpointError surfaces the last background checkpoint failure (""
	// when healthy): the store keeps serving, but the WAL stops shrinking.
	CheckpointError string `json:"checkpointError,omitempty"`
	// Epoch is the store's leadership epoch; FencedBy is the foreign epoch
	// that fenced it (0 = accepting writes).
	Epoch    uint64 `json:"epoch"`
	FencedBy uint64 `json:"fencedBy,omitempty"`
}

// Store is a durable snapshot engine. All methods are safe for concurrent
// use.
type Store struct {
	dir string
	opt Options
	log *wal.Log
	eng *snapshot.Engine

	recovered bool
	replayed  int

	// ckptMu serializes checkpoint writes; lastCkptErr (under it) latches
	// the most recent background checkpoint failure for Stats.
	ckptMu      sync.Mutex
	lastCkptErr error
	lastCkpt    atomic.Uint64
	sinceCkpt   atomic.Uint64

	// epochMu guards the persisted fencing state, and WAL appends take it so
	// none can land once a fence is durable (see persistBatch); fenced mirrors
	// "fencedBy > 0" for the lock-free check at the door.
	epochMu  sync.Mutex
	epoch    uint64
	fencedBy uint64
	fenced   atomic.Bool

	kick        chan struct{}
	stop        chan struct{}
	done        chan struct{}
	ckptStarted bool
	closeOnce   sync.Once
	closeErr    error

	ckptDur *telemetry.Histogram // nil-safe checkpoint-latency instrument
}

// HasState reports whether dataDir holds a checkpoint to recover from —
// the cheap probe callers use to skip building a bootstrap graph that
// Open would discard anyway. It does not validate the checkpoint; Open
// still fails loudly when none of the files load.
func HasState(dataDir string) bool {
	seqs, err := listCheckpoints(dataDir)
	return err == nil && len(seqs) > 0
}

// Open recovers (or bootstraps) the durable store rooted at dataDir and
// starts its engine and checkpointer. Close releases both.
func Open(dataDir string, opt Options) (*Store, error) {
	if _, err := wal.ParsePolicy(string(opt.Fsync)); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating data dir: %w", err)
	}
	removeStaleTemp(dataDir)

	epoch, fencedBy, epochFound, err := loadEpochFile(dataDir)
	if err != nil {
		return nil, err
	}
	if !epochFound {
		// First boot (or a data dir from before fencing existed): epoch 1,
		// unfenced, persisted before any write is accepted.
		epoch = 1
		if err := writeEpochFile(dataDir, epoch, 0); err != nil {
			return nil, err
		}
	}

	g, ckptSeq, found, err := recoverCheckpoint(dataDir)
	if err != nil {
		return nil, err
	}
	if !found {
		if opt.Init == nil {
			return nil, fmt.Errorf("store: %s holds no checkpoint and no initial graph was provided", dataDir)
		}
		g, ckptSeq = opt.Init, 0
	}

	log, err := wal.Open(dataDir, ckptSeq, wal.Options{
		Policy:       opt.Fsync,
		SegmentBytes: opt.SegmentBytes,
		Metrics:      opt.Metrics,
	})
	if err != nil {
		return nil, err
	}
	if !found && log.LastSeq() > 0 {
		// A WAL without any checkpoint means the base state the log applies
		// to is gone; replaying it onto an unrelated Init graph would serve
		// silently wrong answers.
		log.Close()
		return nil, fmt.Errorf("store: %s has %d WAL records but no checkpoint to apply them to", dataDir, log.LastSeq())
	}
	replayed, err := wal.Replay(dataDir, ckptSeq, func(seq uint64, w graph.Write) error {
		changed, err := g.Apply(w)
		if err == nil && !changed {
			err = fmt.Errorf("%+v changes nothing: the log and the checkpoint diverged", w)
		}
		if err != nil {
			return fmt.Errorf("store: WAL seq %d: %w", seq, err)
		}
		return nil
	})
	if err != nil {
		log.Close()
		return nil, fmt.Errorf("store: replaying WAL tail: %w", err)
	}

	st := &Store{
		dir:       dataDir,
		opt:       opt,
		log:       log,
		recovered: found,
		replayed:  replayed,
		kick:      make(chan struct{}, 1),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	st.lastCkpt.Store(ckptSeq)
	st.sinceCkpt.Store(log.LastSeq() - ckptSeq)
	st.epoch = epoch
	st.fencedBy = fencedBy
	st.fenced.Store(fencedBy > 0)

	if !found {
		// First boot: persist the base state before serving, so every later
		// recovery has a checkpoint to anchor the WAL chain to. This runs
		// before the engine takes ownership of g — afterwards only the
		// writer goroutine may touch it.
		if err := writeCheckpoint(dataDir, g, log.LastSeq()); err != nil {
			log.Close()
			return nil, err
		}
		st.lastCkpt.Store(log.LastSeq())
		st.sinceCkpt.Store(0)
	}

	st.eng = snapshot.New(g, snapshot.Options{
		Persist:    st.persistBatch,
		InitialSeq: log.LastSeq(),
		Metrics:    opt.Metrics,
	})
	st.ckptDur = opt.Metrics.Histogram("sac_store_checkpoint_duration_seconds",
		"Checkpoint write latency (snapshot serialization plus WAL truncation).",
		[]float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 15, 60})
	opt.Metrics.GaugeFunc("sac_store_last_checkpoint_seq",
		"WAL sequence covered by the newest checkpoint.",
		func() float64 { return float64(st.lastCkpt.Load()) })

	if opt.checkpointInterval() > 0 || opt.CheckpointEvents > 0 {
		st.ckptStarted = true
		go st.checkpointer()
	}
	return st, nil
}

// persistBatch is the engine's durability hook: it runs in the writer
// goroutine, appending one publication's worth of state-changing writes as a
// single group commit.
//
// This is where the fence is authoritative. CheckIn and UpdateEdge turn
// writes away at the door, but writes that passed the door before Fence
// flipped the flag are still queued in the engine, and logging them after
// Fence returned — after the shipper told a peer this store is fenced — would
// fork history. The check and the append therefore share the mutex Fence
// holds: an append either completes before the fence is durable or is
// refused with ErrFenced. The engine treats that like any persist failure —
// the batch's waiters get the error and the engine latches read-only, because
// the refused writes were already applied to the writer's graph; a fenced
// store that is promoted again (BumpEpoch) after refusing a batch here needs a
// restart to accept writes.
func (s *Store) persistBatch(batch []graph.Write) (uint64, error) {
	s.epochMu.Lock()
	if s.fencedBy > 0 {
		s.epochMu.Unlock()
		return 0, ErrFenced
	}
	seq, err := s.log.Append(batch)
	s.epochMu.Unlock()
	if err != nil {
		return 0, err
	}
	if n := s.sinceCkpt.Add(uint64(len(batch))); s.opt.CheckpointEvents > 0 && n >= s.opt.CheckpointEvents {
		select {
		case s.kick <- struct{}{}:
		default:
		}
	}
	return seq, nil
}

// Engine exposes the underlying snapshot engine; queries and writes through
// it are durable (the persist hook rides inside its writer loop).
func (s *Store) Engine() *snapshot.Engine { return s.eng }

// Current returns the latest published snapshot.
func (s *Store) Current() *snapshot.Snap { return s.eng.Current() }

// CheckIn forwards to the engine; when it returns, the write is published
// and logged (and, under FsyncAlways, on disk). A fenced store rejects the
// write before it reaches the engine; one that slipped past this check while
// Fence was running is refused where it would be logged (persistBatch).
func (s *Store) CheckIn(ctx context.Context, v graph.V, p geom.Point) error {
	if s.fenced.Load() {
		return ErrFenced
	}
	return s.eng.CheckIn(ctx, v, p)
}

// UpdateEdge forwards to the engine with the same durability and fencing
// guarantees as CheckIn.
func (s *Store) UpdateEdge(ctx context.Context, u, v graph.V, insert bool) (bool, error) {
	if s.fenced.Load() {
		return false, ErrFenced
	}
	return s.eng.UpdateEdge(ctx, u, v, insert)
}

// Dir returns the data directory the store owns; the replication shipper
// opens its WAL cursors there.
func (s *Store) Dir() string { return s.dir }

// WalLastSeq returns the newest logged record's sequence — the leader's
// replication high-water mark.
func (s *Store) WalLastSeq() uint64 { return s.log.LastSeq() }

// Stats reports the durability status.
func (s *Store) Stats() Stats {
	segs, bytes := s.log.Stats()
	st := Stats{
		WalSegments:       segs,
		WalBytes:          bytes,
		WalLastSeq:        s.log.LastSeq(),
		LastCheckpointSeq: s.lastCkpt.Load(),
		FsyncPolicy:       string(s.log.Policy()),
		Recovered:         s.recovered,
		ReplayedRecords:   s.replayed,
	}
	s.ckptMu.Lock()
	if s.lastCkptErr != nil {
		st.CheckpointError = s.lastCkptErr.Error()
	}
	s.ckptMu.Unlock()
	s.epochMu.Lock()
	st.Epoch = s.epoch
	st.FencedBy = s.fencedBy
	s.epochMu.Unlock()
	return st
}

// checkpointer runs background checkpoints on a timer and on the
// record-count kick from the persist hook.
func (s *Store) checkpointer() {
	defer close(s.done)
	var tick <-chan time.Time
	if iv := s.opt.checkpointInterval(); iv > 0 {
		t := time.NewTicker(iv)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-s.stop:
			return
		case <-tick:
		case <-s.kick:
		}
		// Failures are latched for Stats, not fatal: the WAL keeps every
		// write safe, it just stops shrinking until a checkpoint succeeds.
		_ = s.Checkpoint()
	}
}

// Checkpoint persists the current published snapshot and truncates the WAL
// segments it makes redundant. Safe to call at any time; concurrent calls
// serialize. No-op when nothing new was published since the last checkpoint.
func (s *Store) Checkpoint() error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	snap := s.eng.Current()
	seq := snap.WalSeq()
	if seq <= s.lastCkpt.Load() {
		return nil
	}
	start := time.Now()
	defer func() { s.ckptDur.Observe(time.Since(start).Seconds()) }()
	// The published graph is frozen and immutable; WriteBinary is a pure
	// reader, so checkpointing never blocks writers or queries.
	if err := writeCheckpoint(s.dir, snap.Graph(), seq); err != nil {
		s.lastCkptErr = err
		return err
	}
	s.lastCkpt.Store(seq)
	s.sinceCkpt.Store(s.log.LastSeq() - seq)
	// Keep this checkpoint and its predecessor, and truncate the WAL only
	// through the older retained one: if the newest checkpoint file turns
	// out damaged at the next recovery, the fallback still has every record
	// it needs to replay forward.
	horizon, err := pruneCheckpoints(s.dir, 2)
	if err != nil {
		s.lastCkptErr = err
		return err
	}
	if err := s.log.TruncateThrough(horizon); err != nil {
		s.lastCkptErr = err
		return err
	}
	s.lastCkptErr = nil
	return nil
}

// Close checkpoints the final state (best effort — the WAL already holds
// everything), stops the checkpointer and engine, and closes the log.
func (s *Store) Close() error {
	s.closeOnce.Do(func() {
		s.stopBackground()
		s.eng.Close()
		ckptErr := s.Checkpoint()
		logErr := s.log.Close()
		s.closeErr = errors.Join(ckptErr, logErr)
	})
	return s.closeErr
}

// Crash tears the store down the way SIGKILL would: no final checkpoint, no
// orderly anything — the data dir is left exactly as the last append/
// checkpoint left it. Crash-recovery tests reopen the directory afterwards;
// production code should call Close.
func (s *Store) Crash() {
	s.closeOnce.Do(func() {
		s.stopBackground()
		s.eng.Close()
		_ = s.log.Close()
	})
}

func (s *Store) stopBackground() {
	close(s.stop)
	if s.ckptStarted {
		<-s.done
	}
}

// --- checkpoint files -------------------------------------------------------

// Checkpoint file layout: a 20-byte header — magic "SACCKPT1", the covered
// WAL sequence, and a CRC-32 of those 16 bytes — followed by the
// graph.WriteBinary stream (which carries its own checksum). Files are
// written to a temp name, fsynced, renamed into place, and the directory
// fsynced, so a crash mid-checkpoint leaves only an ignorable .tmp.

var ckptMagic = [8]byte{'S', 'A', 'C', 'C', 'K', 'P', 'T', '1'}

const (
	ckptPrefix = "checkpoint-"
	ckptSuffix = ".ckpt"
)

func ckptName(seq uint64) string { return wal.NumberedName(ckptPrefix, seq, ckptSuffix) }

func parseCkptName(name string) (uint64, bool) {
	return wal.ParseNumberedName(name, ckptPrefix, ckptSuffix)
}

func writeCheckpoint(dir string, g *graph.Graph, seq uint64) error {
	err := installFile(dir, ckptName(seq), func(f *os.File) error {
		var hdr [20]byte
		copy(hdr[:8], ckptMagic[:])
		binary.LittleEndian.PutUint64(hdr[8:], seq)
		binary.LittleEndian.PutUint32(hdr[16:], crc32.ChecksumIEEE(hdr[:16]))
		if _, err := f.Write(hdr[:]); err != nil {
			return err
		}
		return graph.WriteBinary(f, g)
	})
	if err != nil {
		return fmt.Errorf("store: writing checkpoint %d: %w", seq, err)
	}
	return nil
}

// installFile is the store's one atomic file install: write fills
// <name>.tmp, which is fsynced on the same handle, closed, renamed over name,
// and the directory fsynced, every step checked. A crash at any point leaves
// either the old file or the new one, plus at most a .tmp that Open removes.
// On an error the .tmp is removed and name is untouched.
func installFile(dir, name string, write func(*os.File) error) error {
	path := filepath.Join(dir, name)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return wal.SyncDir(dir)
}

func loadCheckpoint(path string) (*graph.Graph, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	var hdr [20]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, 0, fmt.Errorf("store: checkpoint header: %w", err)
	}
	if [8]byte(hdr[:8]) != ckptMagic {
		return nil, 0, fmt.Errorf("store: %s is not a checkpoint (bad magic)", path)
	}
	if got := binary.LittleEndian.Uint32(hdr[16:]); got != crc32.ChecksumIEEE(hdr[:16]) {
		return nil, 0, fmt.Errorf("store: %s has a corrupt header", path)
	}
	seq := binary.LittleEndian.Uint64(hdr[8:])
	g, err := graph.ReadBinary(f)
	if err != nil {
		return nil, 0, fmt.Errorf("store: checkpoint graph: %w", err)
	}
	// Bytes after the graph's checksum are covered by no CRC; ReadBinary
	// reads ahead, so they are counted from the file's size.
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, fmt.Errorf("store: checkpoint size: %w", err)
	}
	if want := int64(len(hdr)) + graph.BinarySize(g); fi.Size() != want {
		return nil, 0, fmt.Errorf("store: %s holds %d bytes after its graph", path, fi.Size()-want)
	}
	return g, seq, nil
}

// listCheckpoints returns checkpoint seqs ascending.
func listCheckpoints(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: reading %s: %w", dir, err)
	}
	var seqs []uint64
	for _, e := range entries {
		if seq, ok := parseCkptName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// recoverCheckpoint loads the newest checkpoint that validates, falling back
// to older ones. found=false only when the directory holds no checkpoint
// files at all; existing-but-unloadable checkpoints are a loud error, never
// a silent fresh start.
func recoverCheckpoint(dir string) (g *graph.Graph, seq uint64, found bool, err error) {
	seqs, err := listCheckpoints(dir)
	if err != nil {
		return nil, 0, false, err
	}
	if len(seqs) == 0 {
		return nil, 0, false, nil
	}
	var fails []error
	for i := len(seqs) - 1; i >= 0; i-- {
		path := filepath.Join(dir, ckptName(seqs[i]))
		g, gotSeq, err := loadCheckpoint(path)
		if err != nil {
			fails = append(fails, err)
			continue
		}
		if gotSeq != seqs[i] {
			fails = append(fails, fmt.Errorf("store: %s claims seq %d", path, gotSeq))
			continue
		}
		return g, gotSeq, true, nil
	}
	return nil, 0, false, fmt.Errorf("store: no checkpoint in %s is readable: %w", dir, errors.Join(fails...))
}

// pruneCheckpoints keeps the newest `keep` checkpoint files and removes the
// rest, returning the oldest retained sequence (the safe WAL truncation
// horizon).
func pruneCheckpoints(dir string, keep int) (uint64, error) {
	seqs, err := listCheckpoints(dir)
	if err != nil {
		return 0, err
	}
	if len(seqs) == 0 {
		return 0, nil
	}
	removed := false
	for len(seqs) > keep {
		if err := os.Remove(filepath.Join(dir, ckptName(seqs[0]))); err != nil {
			return 0, fmt.Errorf("store: pruning checkpoint: %w", err)
		}
		removed = true
		seqs = seqs[1:]
	}
	if removed {
		if err := wal.SyncDir(dir); err != nil {
			return 0, err
		}
	}
	return seqs[0], nil
}

// removeStaleTemp drops the .tmp leftovers of a crash mid-install: a
// checkpoint's or the epoch file's.
func removeStaleTemp(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, ckptPrefix) && strings.HasSuffix(name, ".tmp") || name == epochFile+".tmp" {
			os.Remove(filepath.Join(dir, name))
		}
	}
}
