package replica

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"sacsearch/internal/dataset"
	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
	"sacsearch/internal/snapshot"
	"sacsearch/internal/store"
	"sacsearch/internal/wal"
)

// TestRecordsMessageBytesPinned: a msgRecords message as it crosses the
// wire — framing, then the WAL frames of a check-in, an insert and a delete —
// recorded before the log took graph.Write.
func TestRecordsMessageBytesPinned(t *testing.T) {
	var payload []byte
	for i, w := range []graph.Write{
		{Kind: graph.WriteCheckin, V: 12, Loc: geom.Point{X: 0.5, Y: -0.125}},
		{Kind: graph.WriteAddEdge, V: 12, W: 30},
		{Kind: graph.WriteRemoveEdge, V: 30, W: 12},
	} {
		payload = wal.EncodeFrame(payload, uint64(41+i), w)
	}
	var buf bytes.Buffer
	if err := writeMessage(&buf, msgRecords, payload); err != nil {
		t.Fatal(err)
	}
	const want = "0159000000d4cab75c1d000000bf00cd0a2900000000000000010c000000000000000000e03f000000000000c0bf" +
		"12000000ae88ce622a00000000000000020c0000001e0000000112000000cca08d622b00000000000000021e0000000c00000000"
	if got := hex.EncodeToString(buf.Bytes()); got != want {
		t.Fatalf("msgRecords message = %s, want %s", got, want)
	}
}

// fakeSession runs one follower session against a leader that answers the
// handshake by calling send, and returns the follower and the session's
// error.
func fakeSession(t *testing.T, send func(net.Conn)) (*Follower, error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := readHandshake(conn); err != nil {
			return
		}
		send(conn)
		io.Copy(io.Discard, conn) // hold the connection until the follower drops it
	}()
	f := &Follower{opt: FollowerOptions{Leader: ln.Addr().String(), Logger: discard}}
	f.ctx, f.cancel = context.WithCancel(context.Background())
	t.Cleanup(f.cancel)
	_, err = f.session()
	return f, err
}

// sendSnapshot answers with a snapshot of testGraph whose length prefix
// claims pad bytes more than the graph, followed by pad zero bytes.
func sendSnapshot(conn net.Conn, pad int) {
	var body bytes.Buffer
	graph.WriteBinary(&body, testGraph())
	body.Write(make([]byte, pad))
	var lenBuf [8]byte
	binary.LittleEndian.PutUint64(lenBuf[:], uint64(body.Len()))
	writeResponse(conn, response{Status: statusSnapshot, Epoch: 1, HeartbeatMillis: 20})
	conn.Write(lenBuf[:])
	conn.Write(body.Bytes())
}

// TestSnapshotPrefixMustMatchGraph: the snapshot transfer's length prefix is
// the graph's size. A leader claiming 8 bytes more and sending 8 zero bytes
// after the graph used to be accepted — graph.ReadBinary's read-ahead
// swallowed them — and now fails the session before any engine exists.
func TestSnapshotPrefixMustMatchGraph(t *testing.T) {
	f, err := fakeSession(t, func(conn net.Conn) { sendSnapshot(conn, 8) })
	if err == nil || !strings.Contains(err.Error(), "snapshot transfer") {
		t.Fatalf("session over a padded snapshot: err = %v, want a snapshot transfer failure", err)
	}
	if f.Status().Synced || f.Engine() != nil {
		t.Fatal("a snapshot with a wrong length prefix was installed")
	}
}

// TestDivergentMessageForcesResync: a shipped message whose writes the
// follower cannot apply as logged ends the session without advancing the
// applied seq and forces the next session to re-sync from a snapshot. A
// write the door refuses takes the whole message with it; a write that
// changes nothing locally (an edge the follower already holds) shows the
// follower's state is not the prefix the leader's log extends.
func TestDivergentMessageForcesResync(t *testing.T) {
	move := graph.Write{Kind: graph.WriteCheckin, V: 1, Loc: geom.Point{X: 0.5, Y: 0.5}}
	for _, tc := range []struct {
		name    string
		second  graph.Write
		applied uint64 // writes the follower's engine applied
		want    string
	}{
		{"refused", graph.Write{Kind: graph.WriteCheckin, V: 48}, 0, "out of range"},
		{"no-op", graph.Write{Kind: graph.WriteAddEdge, V: 0, W: 1}, 2, "no-op locally"},
	} {
		f, err := fakeSession(t, func(conn net.Conn) {
			sendSnapshot(conn, 0)
			writeMessage(conn, msgRecords, wal.EncodeFrame(wal.EncodeFrame(nil, 1, move), 2, tc.second))
		})
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "re-sync") {
			t.Fatalf("%s: err = %v, want %q and a forced re-sync", tc.name, err, tc.want)
		}
		if f.Status().AppliedSeq != 0 || f.appliedEpoch.Load() != 0 {
			t.Fatalf("%s: applied seq %d at epoch %d, want 0 at 0", tc.name, f.Status().AppliedSeq, f.appliedEpoch.Load())
		}
		if got := f.Engine().Applied(); got != tc.applied {
			t.Fatalf("%s: the engine applied %d writes, want %d", tc.name, got, tc.applied)
		}
	}
}

// TestFollowerAppliesAMessageAsOneBatch: a 1 000-record tail, shipped as two
// messages, publishes ⌈1000/batchMax⌉ snapshots on the follower (plus
// slack for the message boundary), not one per record, and lands on the
// leader's state.
func TestFollowerAppliesAMessageAsOneBatch(t *testing.T) {
	st, sh := startLeader(t, store.Options{Fsync: store.FsyncNever})
	addr := sh.Addr().String()
	f := startFollower(t, addr)
	waitFor(t, 5*time.Second, "initial sync", func() bool { return f.Status().Synced })

	// Partition, write the tail, heal: the follower resumes from seq 0 and
	// the shipper sends the backlog in shipBatchMax-record messages.
	sh.Close()
	const tail = 1000
	rnd := rand.New(rand.NewSource(5))
	for i := 0; i < tail; i++ {
		v := graph.V(rnd.Intn(st.Current().Graph().NumVertices()))
		if err := st.CheckIn(context.Background(), v, geom.Point{X: rnd.Float64(), Y: rnd.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
	eng := f.Engine()
	before := eng.Published()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	sh2 := NewShipper(st, ln, ShipperOptions{Heartbeat: 20 * time.Millisecond, Poll: time.Millisecond, Logger: discard})
	defer sh2.Close()
	waitFor(t, 10*time.Second, "tail catch-up", caughtUp(st, f))

	if f.Engine() != eng || f.Status().Resyncs != 1 {
		t.Fatalf("the tail re-synced (resyncs %d) instead of resuming", f.Status().Resyncs)
	}
	const bound = (tail+127)/128 + 2
	got := eng.Published() - before
	if got > bound {
		t.Fatalf("a %d-record tail took %d publications, want ≤ %d", tail, got, bound)
	}
	t.Logf("%d records, %d publications", tail, got)
	graphsEqual(t, "batched tail", eng.Current().Graph(), st.Current().Graph())
}

// BenchmarkFollowerApply measures the follower's apply path alone: a
// 10 000-record tail, three check-ins to one edge write, decoded and applied
// from 512-record msgRecords payloads onto an engine over syn1 at full
// scale. It reports records/s.
func BenchmarkFollowerApply(b *testing.B) {
	ds, err := dataset.Load("syn1", 1)
	if err != nil {
		b.Fatal(err)
	}
	const records = 10_000
	payloads := followerTail(ds.Graph, records, shipBatchMax)
	var elapsed time.Duration
	for i := 0; i < b.N; i++ {
		eng := snapshot.New(ds.Graph.Clone(), snapshot.Options{})
		f := &Follower{ctx: context.Background()}
		f.eng.Store(eng)
		start := time.Now()
		for _, p := range payloads {
			if err := f.applyMessage(p); err != nil {
				b.Fatal(err)
			}
		}
		elapsed += time.Since(start)
		eng.Close()
	}
	b.ReportMetric(float64(records*b.N)/elapsed.Seconds(), "records/s")
}

// followerTail encodes n state-changing writes against g — three check-ins
// to one edge write, each edge write inserting a new edge or removing one it
// inserted — as msgRecords payloads of per records each, seqs from 1.
func followerTail(g *graph.Graph, n, per int) [][]byte {
	ref := g.Clone()
	rnd := rand.New(rand.NewSource(31))
	nv := ref.NumVertices()
	var added [][2]graph.V
	var payloads [][]byte
	var p []byte
	for seq := uint64(1); seq <= uint64(n); seq++ {
		var w graph.Write
		switch {
		case seq%4 != 0:
			v := graph.V(rnd.Intn(nv))
			at := ref.Loc(v)
			w = graph.Write{Kind: graph.WriteCheckin, V: v,
				Loc: geom.Point{X: at.X + rnd.NormFloat64()*0.01, Y: at.Y + rnd.NormFloat64()*0.01}}
		case len(added) > 0 && rnd.Intn(2) == 0:
			e := added[len(added)-1]
			added = added[:len(added)-1]
			w = graph.Write{Kind: graph.WriteRemoveEdge, V: e[0], W: e[1]}
		default:
			for {
				u, v := graph.V(rnd.Intn(nv)), graph.V(rnd.Intn(nv))
				if u != v && !ref.HasEdge(u, v) {
					w = graph.Write{Kind: graph.WriteAddEdge, V: u, W: v}
					added = append(added, [2]graph.V{u, v})
					break
				}
			}
		}
		if changed, err := ref.Apply(w); err != nil || !changed {
			panic("followerTail built a write that changes nothing")
		}
		p = wal.EncodeFrame(p, seq, w)
		if seq%uint64(per) == 0 || seq == uint64(n) {
			payloads = append(payloads, p)
			p = nil
		}
	}
	return payloads
}
