package replica

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sacsearch/internal/graph"
	"sacsearch/internal/store"
	"sacsearch/internal/telemetry"
	"sacsearch/internal/wal"
)

// ShipperOptions tunes the leader side of replication. The zero value
// serves: 500 ms heartbeats, 5 ms tail polling.
type ShipperOptions struct {
	// Heartbeat is the interval between heartbeat messages on an idle
	// stream; a follower declares the leader dead after missing several.
	Heartbeat time.Duration
	// Poll paces the WAL tail polling loop when the cursor is caught up.
	Poll time.Duration
	// Logger receives connection-level events (defaults to slog.Default()).
	Logger *slog.Logger
	// Metrics, when non-nil, exports follower counts, the slowest acked
	// sequence, and snapshot-transfer counters.
	Metrics *telemetry.Registry
}

func (o ShipperOptions) heartbeat() time.Duration {
	if o.Heartbeat > 0 {
		return o.Heartbeat
	}
	return 500 * time.Millisecond
}

func (o ShipperOptions) poll() time.Duration {
	if o.Poll > 0 {
		return o.Poll
	}
	return 5 * time.Millisecond
}

// shipBatchMax bounds the records shipped in one stream message.
const shipBatchMax = 512

func (o ShipperOptions) logger() *slog.Logger {
	if o.Logger != nil {
		return o.Logger
	}
	return slog.Default()
}

// Shipper accepts follower connections and streams the store's WAL to each:
// a snapshot first when the follower cannot resume (fresh, behind the
// truncation horizon, or from another epoch), then the live tail via a
// wal.Cursor per connection. It also enforces fencing: a handshake proving
// a higher epoch exists fences the store before the connection is refused.
type Shipper struct {
	st  *store.Store
	ln  net.Listener
	opt ShipperOptions

	mu     sync.Mutex
	conns  map[net.Conn]*shipSession
	closed bool
	done   chan struct{}

	snapshots atomic.Uint64 // snapshot transfers sent
}

// shipSession is the leader's per-follower state: whether the session
// reached the streaming phase (handshake accepted, state transferred) and
// the highest sequence the follower has acknowledged applying.
type shipSession struct {
	streaming atomic.Bool
	acked     atomic.Uint64
}

// ShipperStatus is the leader-side replication summary /v1/health surfaces.
type ShipperStatus struct {
	// Followers is how many follower sessions are live and streaming.
	Followers int `json:"followers"`
	// MinAckedSeq is the slowest live follower's acknowledged applied seq
	// (0 when no follower is connected, or a follower has yet to ack).
	MinAckedSeq uint64 `json:"minAckedSeq"`
}

// Status reports the current follower sessions. Comparing MinAckedSeq with
// the store's WalLastSeq gives replication lag as seen from the leader.
func (s *Shipper) Status() ShipperStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	var st ShipperStatus
	for _, sess := range s.conns {
		if !sess.streaming.Load() {
			continue
		}
		a := sess.acked.Load()
		if st.Followers == 0 || a < st.MinAckedSeq {
			st.MinAckedSeq = a
		}
		st.Followers++
	}
	return st
}

// NewShipper starts serving replication on ln (owned by the shipper from
// now on). Close stops the accept loop and every active stream.
func NewShipper(st *store.Store, ln net.Listener, opt ShipperOptions) *Shipper {
	s := &Shipper{st: st, ln: ln, opt: opt,
		conns: make(map[net.Conn]*shipSession), done: make(chan struct{})}
	if reg := opt.Metrics; reg != nil {
		reg.GaugeFunc("sac_replication_followers", "Live streaming follower sessions.",
			func() float64 { return float64(s.Status().Followers) })
		reg.GaugeFunc("sac_replication_min_acked_seq", "Slowest live follower's acknowledged WAL seq.",
			func() float64 { return float64(s.Status().MinAckedSeq) })
		reg.CounterFunc("sac_replication_snapshot_transfers_total", "Full snapshot transfers sent to followers.",
			s.snapshots.Load)
	}
	go s.acceptLoop()
	return s
}

// Addr returns the listening address followers dial.
func (s *Shipper) Addr() net.Addr { return s.ln.Addr() }

// Close stops accepting and tears down active streams.
func (s *Shipper) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.ln.Close()
	<-s.done
}

func (s *Shipper) acceptLoop() {
	defer close(s.done)
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		sess := &shipSession{}
		s.conns[conn] = sess
		s.mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.serve(conn, sess)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// serve runs one follower session to completion.
func (s *Shipper) serve(conn net.Conn, sess *shipSession) {
	defer conn.Close()
	logger := s.opt.logger()
	peer := conn.RemoteAddr()

	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	hs, err := readHandshake(conn)
	if err != nil {
		logger.Warn("replication handshake failed", "peer", peer, "err", err)
		return
	}
	conn.SetReadDeadline(time.Time{})

	// Fencing, inbound: the follower has seen a leader newer than us. Fence
	// our store durably before telling the follower anything, so the
	// rejection can never race a write that forks history.
	if hs.MaxEpochSeen > s.st.Epoch() {
		if err := s.st.Fence(hs.MaxEpochSeen); err != nil {
			logger.Error("fencing failed", "peer", peer, "epoch", hs.MaxEpochSeen, "err", err)
			return
		}
		logger.Warn("fenced by peer, rejecting writes", "peer", peer, "epoch", hs.MaxEpochSeen)
		s.reject(conn, hs.MaxEpochSeen)
		return
	}
	if s.st.Fenced() {
		s.reject(conn, s.st.FencedBy())
		return
	}

	epoch := s.st.Epoch()
	hbMillis := uint32(s.opt.heartbeat() / time.Millisecond)

	// Tail resume is only sound within one epoch (seq numbering aliases
	// across promotions) and while the WAL still holds the follower's
	// position; everything else gets a snapshot.
	var cur *wal.Cursor
	startSeq := hs.AfterSeq
	if hs.AppliedEpoch == epoch && hs.AfterSeq <= s.st.WalLastSeq() {
		cur, err = wal.OpenCursor(s.st.Dir(), hs.AfterSeq)
		if err != nil && !errors.Is(err, wal.ErrGap) {
			logger.Warn("opening replication cursor failed", "peer", peer, "seq", hs.AfterSeq, "err", err)
			return
		}
	}
	if cur == nil {
		cur, startSeq, err = s.sendSnapshot(conn, epoch, hbMillis)
		if err != nil {
			logger.Warn("snapshot transfer failed", "peer", peer, "err", err)
			return
		}
		s.snapshots.Add(1)
	} else {
		if err := writeResponse(conn, response{Status: statusTail, Epoch: epoch,
			StartSeq: startSeq, HeartbeatMillis: hbMillis}); err != nil {
			return
		}
	}
	defer cur.Close()

	// The connection's read side carries follower acks from here on: a
	// dedicated reader keeps sess.acked current and kills the connection on
	// any framing error (the writer side then fails fast).
	ackDone := make(chan struct{})
	go func() {
		defer close(ackDone)
		var buf []byte
		for {
			typ, payload, err := readMessage(conn, buf)
			if err != nil {
				conn.Close()
				return
			}
			buf = payload[:0]
			if typ != msgAck {
				conn.Close()
				return
			}
			seq, err := decodeAck(payload)
			if err != nil {
				conn.Close()
				return
			}
			sess.acked.Store(seq)
		}
	}()
	defer func() { conn.Close(); <-ackDone }()
	sess.streaming.Store(true)

	if err := s.ship(conn, cur, epoch); err != nil {
		logger.Info("replication stream ended", "peer", peer, "seq", cur.Pos(), "err", err)
	}
}

func (s *Shipper) reject(conn net.Conn, epoch uint64) {
	conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	_ = writeResponse(conn, response{Status: statusRejected, Epoch: epoch})
}

// sendSnapshot transfers the current published state and opens the cursor
// that continues right after it. Retried a few times because a checkpoint
// truncation can race the cursor open on a busy leader.
func (s *Shipper) sendSnapshot(conn net.Conn, epoch uint64, hbMillis uint32) (*wal.Cursor, uint64, error) {
	for attempt := 0; ; attempt++ {
		snap := s.st.Current()
		seq := snap.WalSeq()
		cur, err := wal.OpenCursor(s.st.Dir(), seq)
		if err != nil {
			if errors.Is(err, wal.ErrGap) && attempt < 3 {
				continue // truncation raced us; re-grab a fresher snapshot
			}
			return nil, 0, err
		}
		var buf bytes.Buffer
		if err := graph.WriteBinary(&buf, snap.Graph()); err != nil {
			cur.Close()
			return nil, 0, err
		}
		if err := writeResponse(conn, response{Status: statusSnapshot, Epoch: epoch,
			StartSeq: seq, HeartbeatMillis: hbMillis}); err != nil {
			cur.Close()
			return nil, 0, err
		}
		var lenBuf [8]byte
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(buf.Len()))
		conn.SetWriteDeadline(time.Now().Add(time.Minute))
		if _, err := conn.Write(lenBuf[:]); err != nil {
			cur.Close()
			return nil, 0, err
		}
		if _, err := conn.Write(buf.Bytes()); err != nil {
			cur.Close()
			return nil, 0, err
		}
		conn.SetWriteDeadline(time.Time{})
		return cur, seq, nil
	}
}

// ship is the steady-state loop: poll the cursor, send record batches, and
// heartbeat when idle. Returns when the connection drops, the cursor hits
// truncated history (the follower re-syncs via snapshot on reconnect), the
// store gets fenced, or the shipper closes.
func (s *Shipper) ship(conn net.Conn, cur *wal.Cursor, epoch uint64) error {
	var payload []byte
	hbInterval := s.opt.heartbeat()
	nextHB := time.Now() // first heartbeat immediately: it carries the lag baseline
	writeDeadline := 4 * hbInterval
	if writeDeadline < 5*time.Second {
		writeDeadline = 5 * time.Second
	}
	for {
		if s.st.Fenced() {
			return store.ErrFenced
		}
		recs, err := cur.Next(shipBatchMax)
		if err != nil {
			return err
		}
		if len(recs) > 0 {
			payload = payload[:0]
			for i := range recs {
				payload = wal.EncodeFrame(payload, &recs[i])
			}
			conn.SetWriteDeadline(time.Now().Add(writeDeadline))
			if err := writeMessage(conn, msgRecords, payload); err != nil {
				return err
			}
			continue // drain the backlog before pausing
		}
		if now := time.Now(); !now.Before(nextHB) {
			payload = encodeHeartbeat(payload, heartbeat{
				LastSeq: s.st.WalLastSeq(), UnixNano: now.UnixNano(), Epoch: s.st.Epoch()})
			conn.SetWriteDeadline(now.Add(writeDeadline))
			if err := writeMessage(conn, msgHeartbeat, payload); err != nil {
				return err
			}
			nextHB = now.Add(hbInterval)
		}
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return errors.New("replica: shipper closed")
		}
		time.Sleep(s.opt.poll())
	}
}

// FenceLeader dials a leader's replication address and announces that epoch
// exists, fencing the leader if that outranks it — the operator-facing fence
// half of follower promotion, and the path a promoted node uses to make its
// predecessor reject writes. Returns the leader's reported epoch.
func FenceLeader(addr string, epoch uint64, timeout time.Duration) (uint64, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))
	if err := writeHandshake(conn, handshake{MaxEpochSeen: epoch}); err != nil {
		return 0, err
	}
	resp, err := readResponse(conn)
	if err != nil {
		return 0, err
	}
	if resp.Status != statusRejected {
		return resp.Epoch, fmt.Errorf("replica: leader at %s accepted epoch %d as current (status %d)",
			addr, epoch, resp.Status)
	}
	return resp.Epoch, nil
}
