package replica

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sacsearch/internal/graph"
	"sacsearch/internal/snapshot"
	"sacsearch/internal/telemetry"
	"sacsearch/internal/wal"
)

// FollowerOptions configures a Follower. Leader is required; everything
// else has serving defaults.
type FollowerOptions struct {
	// Leader is the leader's replication address (host:port).
	Leader string
	// Dial overrides the connection factory (tests route through the fault
	// proxy here). Defaults to a 5-second TCP dial.
	Dial func(ctx context.Context, addr string) (net.Conn, error)
	// BackoffMin/BackoffMax bound the jittered reconnect backoff
	// (defaults 50 ms / 2 s).
	BackoffMin, BackoffMax time.Duration
	// Logger receives connection-level events (defaults to slog.Default()).
	Logger *slog.Logger
	// Metrics, when non-nil, exports replication lag, connection state and
	// resync/reconnect counters.
	Metrics *telemetry.Registry
}

func (o FollowerOptions) dial() func(context.Context, string) (net.Conn, error) {
	if o.Dial != nil {
		return o.Dial
	}
	d := &net.Dialer{Timeout: 5 * time.Second}
	return func(ctx context.Context, addr string) (net.Conn, error) {
		return d.DialContext(ctx, "tcp", addr)
	}
}

func (o FollowerOptions) backoffMin() time.Duration {
	if o.BackoffMin > 0 {
		return o.BackoffMin
	}
	return 50 * time.Millisecond
}

func (o FollowerOptions) backoffMax() time.Duration {
	if o.BackoffMax > 0 {
		return o.BackoffMax
	}
	return 2 * time.Second
}

func (o FollowerOptions) logger() *slog.Logger {
	if o.Logger != nil {
		return o.Logger
	}
	return slog.Default()
}

// FollowerStatus is one consistent observation of replication state, the
// raw material for /v1/health on a replica.
type FollowerStatus struct {
	// Connected reports a live stream; Synced reports that an initial state
	// transfer completed at some point (reads can be served, maybe stale).
	Connected bool `json:"connected"`
	Synced    bool `json:"synced"`
	// AppliedSeq is the last leader WAL seq applied locally; LeaderSeq the
	// newest one the leader has announced.
	AppliedSeq uint64 `json:"appliedSeq"`
	LeaderSeq  uint64 `json:"leaderSeq"`
	// LeaderEpoch is the epoch of the current (or last) leader session;
	// MaxEpochSeen the highest epoch ever observed.
	LeaderEpoch  uint64 `json:"leaderEpoch"`
	MaxEpochSeen uint64 `json:"maxEpochSeen"`
	// LagSeqs and LagSeconds quantify staleness: records not yet applied,
	// and local-clock time since this node was last provably caught up
	// (clock-skew-free: both endpoints of the measurement are local).
	LagSeqs    uint64  `json:"lagSeqs"`
	LagSeconds float64 `json:"lagSeconds"`
	// Resyncs counts full snapshot transfers, Reconnects completed dials.
	Resyncs    uint64 `json:"resyncs"`
	Reconnects uint64 `json:"reconnects"`
}

// Follower maintains a replication session to a leader: it bootstraps via
// snapshot transfer, tails the WAL stream verifying every CRC and the seq
// chain, applies records onto its own snapshot engine, and reconnects with
// jittered backoff — resuming from the last applied seq when the leader can
// still serve it, or re-syncing from a fresh snapshot when it cannot.
type Follower struct {
	opt FollowerOptions

	eng     atomic.Pointer[snapshot.Engine]
	applied atomic.Uint64 // last applied leader seq

	// appliedEpoch is the epoch the applied seq numbering belongs to (0 =
	// force snapshot on next connect); maxEpoch the fencing high-water mark.
	appliedEpoch atomic.Uint64
	maxEpoch     atomic.Uint64

	leaderSeq    atomic.Uint64
	connected    atomic.Bool
	synced       atomic.Bool
	lastCaughtUp atomic.Int64 // local-clock UnixNano of the last provably-caught-up moment
	resyncs      atomic.Uint64
	reconnects   atomic.Uint64

	mu   sync.Mutex
	conn net.Conn // live connection, closed by Close to unblock reads

	// onPublish is the post-publish hook stamped onto every engine this
	// follower builds — the standing-query layer's feed. See SetOnPublish.
	onPublish atomic.Pointer[func(*snapshot.Snap, []snapshot.AppliedEvent)]

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
}

// NewFollower starts replicating from opt.Leader. The follower serves no
// state until the first sync completes (Engine returns nil before then);
// Close stops replication but leaves the last engine readable.
func NewFollower(opt FollowerOptions) (*Follower, error) {
	if opt.Leader == "" {
		return nil, errors.New("replica: follower needs a leader address")
	}
	f := &Follower{opt: opt, done: make(chan struct{})}
	f.ctx, f.cancel = context.WithCancel(context.Background())
	if reg := opt.Metrics; reg != nil {
		reg.GaugeFunc("sac_replica_lag_seqs", "Leader WAL records not yet applied locally.",
			func() float64 { return float64(f.Status().LagSeqs) })
		reg.GaugeFunc("sac_replica_lag_seconds", "Seconds since this replica was last provably caught up.",
			func() float64 { return f.Status().LagSeconds })
		reg.GaugeFunc("sac_replica_connected", "1 when a replication stream is live.",
			func() float64 { return boolGauge(f.connected.Load()) })
		reg.GaugeFunc("sac_replica_synced", "1 once an initial state transfer completed.",
			func() float64 { return boolGauge(f.synced.Load()) })
		reg.CounterFunc("sac_replica_resyncs_total", "Full snapshot transfers received.",
			f.resyncs.Load)
		reg.CounterFunc("sac_replica_reconnects_total", "Replication sessions established.",
			f.reconnects.Load)
	}
	go f.run()
	return f, nil
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Engine returns the engine holding the replicated state, nil before the
// first sync. The pointer changes across re-syncs; callers grab it per
// request, not once.
func (f *Follower) Engine() *snapshot.Engine { return f.eng.Load() }

// Current returns the latest replicated snapshot, nil before the first sync.
func (f *Follower) Current() *snapshot.Snap {
	if e := f.eng.Load(); e != nil {
		return e.Current()
	}
	return nil
}

// SetOnPublish installs fn as the post-publish hook on the current engine
// and every engine a future re-sync builds, so standing queries keep
// flowing across engine swaps. After each re-sync swap, fn additionally
// fires once with the new engine's current snapshot and a nil event list —
// the change history across a swap is unknown, so subscribers must treat it
// as a full invalidation (snapshot sequence numbers also restart at 1
// across swaps). Like Engine.SetOnPublish, fn runs on writer critical paths
// and must only hand work off.
func (f *Follower) SetOnPublish(fn func(*snapshot.Snap, []snapshot.AppliedEvent)) {
	if fn == nil {
		f.onPublish.Store(nil)
	} else {
		f.onPublish.Store(&fn)
	}
	if eng := f.eng.Load(); eng != nil {
		eng.SetOnPublish(fn)
		if fn != nil {
			fn(eng.Current(), nil)
		}
	}
}

// Status returns a point-in-time view of replication state.
func (f *Follower) Status() FollowerStatus {
	st := FollowerStatus{
		Connected:    f.connected.Load(),
		Synced:       f.synced.Load(),
		AppliedSeq:   f.applied.Load(),
		LeaderSeq:    f.leaderSeq.Load(),
		LeaderEpoch:  f.appliedEpoch.Load(),
		MaxEpochSeen: f.maxEpoch.Load(),
		Resyncs:      f.resyncs.Load(),
		Reconnects:   f.reconnects.Load(),
	}
	if st.LeaderSeq > st.AppliedSeq {
		st.LagSeqs = st.LeaderSeq - st.AppliedSeq
	}
	if st.Synced && (st.LagSeqs > 0 || !st.Connected) {
		if at := f.lastCaughtUp.Load(); at > 0 {
			st.LagSeconds = time.Since(time.Unix(0, at)).Seconds()
		}
	}
	return st
}

// Close stops replication and waits for the session goroutine. The last
// synced engine stays readable afterwards.
func (f *Follower) Close() {
	f.cancel()
	f.mu.Lock()
	if f.conn != nil {
		f.conn.Close()
	}
	f.mu.Unlock()
	<-f.done
}

// run is the reconnect loop: each session attempt either streams until an
// error or tells us the leader is unusable; backoff is exponential with
// ±50% jitter so a herd of followers does not reconnect in lockstep.
func (f *Follower) run() {
	defer close(f.done)
	logger := f.opt.logger()
	backoff := f.opt.backoffMin()
	for {
		if f.ctx.Err() != nil {
			return
		}
		streamed, err := f.session()
		if f.ctx.Err() != nil {
			return
		}
		if err != nil {
			logger.Warn("replica session ended", "leader", f.opt.Leader, "err", err)
		}
		if streamed {
			backoff = f.opt.backoffMin() // the leader was healthy; start over gently
		}
		sleep := time.Duration(float64(backoff) * (0.5 + rand.Float64()))
		select {
		case <-f.ctx.Done():
			return
		case <-time.After(sleep):
		}
		if backoff *= 2; backoff > f.opt.backoffMax() {
			backoff = f.opt.backoffMax()
		}
	}
}

// session runs one connection lifecycle. streamed reports whether the
// handshake completed and records/heartbeats flowed — the signal that the
// leader is alive and backoff should reset.
func (f *Follower) session() (streamed bool, err error) {
	conn, err := f.opt.dial()(f.ctx, f.opt.Leader)
	if err != nil {
		return false, fmt.Errorf("dial: %w", err)
	}
	f.mu.Lock()
	f.conn = conn
	f.mu.Unlock()
	defer func() {
		f.connected.Store(false)
		f.mu.Lock()
		f.conn = nil
		f.mu.Unlock()
		conn.Close()
	}()

	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := writeHandshake(conn, handshake{
		AfterSeq:     f.applied.Load(),
		AppliedEpoch: f.appliedEpoch.Load(),
		MaxEpochSeen: f.maxEpoch.Load(),
	}); err != nil {
		return false, fmt.Errorf("handshake: %w", err)
	}
	resp, err := readResponse(conn)
	if err != nil {
		return false, fmt.Errorf("handshake response: %w", err)
	}
	if resp.Epoch > f.maxEpoch.Load() {
		f.maxEpoch.Store(resp.Epoch)
	}
	switch {
	case resp.Status == statusRejected:
		return false, fmt.Errorf("leader rejected us (leader epoch %d, ours %d)", resp.Epoch, f.maxEpoch.Load())
	case resp.Epoch < f.maxEpoch.Load():
		// A deposed leader still answering: refuse its (possibly forked)
		// history and keep looking for the real one.
		return false, fmt.Errorf("leader epoch %d is behind the highest seen (%d); refusing stream", resp.Epoch, f.maxEpoch.Load())
	}

	hbInterval := time.Duration(resp.HeartbeatMillis) * time.Millisecond
	if hbInterval <= 0 {
		hbInterval = 500 * time.Millisecond
	}

	if resp.Status == statusSnapshot {
		conn.SetReadDeadline(time.Now().Add(time.Minute))
		if err := f.receiveSnapshot(conn, resp); err != nil {
			return false, fmt.Errorf("snapshot transfer: %w", err)
		}
	}
	f.appliedEpoch.Store(resp.Epoch)
	f.reconnects.Add(1)
	f.connected.Store(true)

	// Acks ride the same connection back to the leader: one as soon as the
	// session is established (so a tail-resumed but idle session still
	// reports its position) and one after every applied batch.
	var ackBuf []byte
	sendAck := func() error {
		ackBuf = encodeAck(ackBuf, f.applied.Load())
		conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
		err := writeMessage(conn, msgAck, ackBuf)
		conn.SetWriteDeadline(time.Time{})
		return err
	}
	if err := sendAck(); err != nil {
		return true, fmt.Errorf("initial ack: %w", err)
	}

	// Stream loop: every message refreshes the liveness deadline; missing
	// ~4 heartbeats means the leader (or the path to it) is gone.
	readDeadline := 4 * hbInterval
	if readDeadline < 2*time.Second {
		readDeadline = 2 * time.Second
	}
	var buf []byte
	for {
		conn.SetReadDeadline(time.Now().Add(readDeadline))
		typ, payload, err := readMessage(conn, buf)
		if err != nil {
			return true, fmt.Errorf("stream read at seq %d: %w", f.applied.Load(), err)
		}
		buf = payload[:0]
		switch typ {
		case msgRecords:
			if err := f.applyRecords(payload); err != nil {
				return true, err
			}
			if err := sendAck(); err != nil {
				return true, fmt.Errorf("ack at seq %d: %w", f.applied.Load(), err)
			}
		case msgHeartbeat:
			hb, err := decodeHeartbeat(payload)
			if err != nil {
				return true, err
			}
			if hb.LastSeq > f.leaderSeq.Load() {
				f.leaderSeq.Store(hb.LastSeq)
			}
			if hb.Epoch > f.maxEpoch.Load() {
				f.maxEpoch.Store(hb.Epoch)
			}
			if hb.Epoch >= resp.Epoch {
				// A live leader can bump its own epoch without restarting its
				// WAL numbering, so the tail stays valid — adopt it.
				f.appliedEpoch.Store(hb.Epoch)
			}
		default:
			return true, fmt.Errorf("unknown stream message type %d", typ)
		}
		if f.applied.Load() >= f.leaderSeq.Load() {
			f.lastCaughtUp.Store(time.Now().UnixNano())
		}
	}
}

// receiveSnapshot reads the length-prefixed graph, builds a fresh engine
// around it and swaps it in, retiring the previous engine.
func (f *Follower) receiveSnapshot(conn net.Conn, resp response) error {
	var lenBuf [8]byte
	if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
		return err
	}
	n := binary.LittleEndian.Uint64(lenBuf[:])
	g, err := graph.ReadBinary(io.LimitReader(conn, int64(n)))
	if err != nil {
		return err
	}
	eng := snapshot.New(g, snapshot.Options{})
	if fn := f.onPublish.Load(); fn != nil {
		eng.SetOnPublish(*fn)
	}
	if old := f.eng.Swap(eng); old != nil {
		old.Close()
	}
	if fn := f.onPublish.Load(); fn != nil {
		// The swap invalidates every derived answer: no event list can
		// describe it, so notify with nil (= re-evaluate everything).
		(*fn)(eng.Current(), nil)
	}
	f.applied.Store(resp.StartSeq)
	if resp.StartSeq > f.leaderSeq.Load() {
		f.leaderSeq.Store(resp.StartSeq)
	}
	// A snapshot is the leader's state as of StartSeq: provably caught up to
	// that point, right now, on our own clock.
	f.lastCaughtUp.Store(time.Now().UnixNano())
	f.resyncs.Add(1)
	f.synced.Store(true)
	return nil
}

// applyRecords decodes one msgRecords payload — concatenated wal frames —
// verifying each frame's CRC and the seq chain, and applies them in order.
// Any violation aborts the session; a divergence that a tail resume cannot
// heal (apply failure, no-op replicated mutation) additionally forces the
// next session into snapshot mode rather than trusting local state.
func (f *Follower) applyRecords(payload []byte) error {
	eng := f.eng.Load()
	if eng == nil {
		return errors.New("records before any snapshot")
	}
	for off := 0; off < len(payload); {
		n, rec, ok := wal.DecodeFrame(payload[off:])
		if !ok {
			return fmt.Errorf("undecodable record frame at byte %d of message", off)
		}
		off += n
		want := f.applied.Load() + 1
		if rec.Seq != want {
			return fmt.Errorf("record seq %d, want %d", rec.Seq, want)
		}
		if err := f.applyOne(eng, rec); err != nil {
			// Local state can no longer be trusted to extend: re-bootstrap.
			f.appliedEpoch.Store(0)
			return fmt.Errorf("applying seq %d: %w (forcing snapshot re-sync)", rec.Seq, err)
		}
		f.applied.Store(rec.Seq)
		if rec.Seq > f.leaderSeq.Load() {
			f.leaderSeq.Store(rec.Seq)
		}
	}
	return nil
}

func (f *Follower) applyOne(eng *snapshot.Engine, r wal.Record) error {
	switch r.Kind {
	case wal.KindCheckin:
		return eng.CheckIn(f.ctx, r.V, r.Loc)
	case wal.KindEdge:
		changed, err := eng.UpdateEdge(f.ctx, r.U, r.W, r.Insert)
		if err != nil {
			return err
		}
		if !changed {
			// The leader only logs state-changing events; a replicated no-op
			// means our state diverged from the prefix it applies to.
			return fmt.Errorf("replicated edge (%d,%d,insert=%v) was a no-op locally", r.U, r.W, r.Insert)
		}
		return nil
	default:
		return fmt.Errorf("unknown record kind %d", r.Kind)
	}
}
