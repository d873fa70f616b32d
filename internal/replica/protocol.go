// Package replica implements WAL-shipping replication: a leader-side
// Shipper that streams the write-ahead log (sealed segments and the live
// tail, in the same CRC-framed, gap-checked record format recovery
// validates) to follower processes, and a Follower that replays the stream
// onto its own snapshot engine and serves read-only traffic.
//
// Wire protocol (all integers little-endian), one TCP connection per
// follower session:
//
//	handshake  follower → leader, 32 bytes:
//	  magic        "SACREP01"
//	  afterSeq     uint64   last WAL seq the follower has applied
//	  appliedEpoch uint64   leader epoch those records were applied under
//	  maxEpochSeen uint64   highest leader epoch the follower has ever seen
//	response   leader → follower, 29 bytes:
//	  magic        "SACREP01"
//	  status       uint8    1 = tail, 2 = snapshot, 3 = rejected
//	  epoch        uint64   the leader's current epoch
//	  startSeq     uint64   seq the stream resumes after
//	  heartbeat    uint32   leader's heartbeat interval, milliseconds
//	snapshot   (status 2 only): uint64 byte length, then exactly that many
//	  bytes of graph.WriteBinary output — the leader state as of startSeq.
//	  Length-prefixed because ReadBinary buffers reads and must not swallow
//	  stream bytes that follow; a length other than graph.BinarySize of the
//	  graph read fails the session.
//	stream     leader → follower, repeated messages:
//	  type u8 | len u32 | crc u32 (IEEE, of payload) | payload
//	  type 1 = records:   concatenated wal frames, consecutive seqs, as the
//	                      leader's log stores them; applied whole or not at all
//	  type 2 = heartbeat: leaderLastSeq uint64, unixNano int64, epoch uint64
//	acks       follower → leader, same framing on the same connection:
//	  type 3 = ack:       appliedSeq uint64 — sent once the session is
//	  established and after every applied record batch, so the leader's
//	  /v1/health can report per-follower acknowledged progress.
//
// Sequence numbers alias across epochs (a promoted leader's log restarts
// its own numbering), so tail resume is only offered when the follower's
// appliedEpoch equals the leader's current epoch; anything else — and any
// WAL truncation past the follower's position — falls back to a snapshot.
//
// Fencing rides the same plane in both directions: a handshake whose
// maxEpochSeen exceeds the leader's epoch fences the leader (its store
// rejects all further writes with store.ErrFenced) and the connection is
// rejected; a follower refuses any leader whose epoch is below its own
// maxEpochSeen, so a deposed leader cannot feed it forked history.
package replica

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

var wireMagic = [8]byte{'S', 'A', 'C', 'R', 'E', 'P', '0', '1'}

// Response statuses.
const (
	statusTail     = 1 // stream continues right after handshake.afterSeq
	statusSnapshot = 2 // full state transfer, then stream from its seq
	statusRejected = 3 // leader refuses (fenced, or outranked by the follower)
)

// Stream message types.
const (
	msgRecords   = 1
	msgHeartbeat = 2
	msgAck       = 3 // follower → leader
)

// maxMessageLen bounds one stream message so a corrupted length field
// cannot trigger a huge allocation on either side.
const maxMessageLen = 1 << 20

type handshake struct {
	AfterSeq     uint64
	AppliedEpoch uint64
	MaxEpochSeen uint64
}

type response struct {
	Status          uint8
	Epoch           uint64
	StartSeq        uint64
	HeartbeatMillis uint32
}

type heartbeat struct {
	LastSeq  uint64
	UnixNano int64
	Epoch    uint64
}

func writeHandshake(w io.Writer, h handshake) error {
	var buf [32]byte
	copy(buf[:8], wireMagic[:])
	binary.LittleEndian.PutUint64(buf[8:], h.AfterSeq)
	binary.LittleEndian.PutUint64(buf[16:], h.AppliedEpoch)
	binary.LittleEndian.PutUint64(buf[24:], h.MaxEpochSeen)
	_, err := w.Write(buf[:])
	return err
}

func readHandshake(r io.Reader) (handshake, error) {
	var buf [32]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return handshake{}, err
	}
	if [8]byte(buf[:8]) != wireMagic {
		return handshake{}, errors.New("replica: bad handshake magic")
	}
	return handshake{
		AfterSeq:     binary.LittleEndian.Uint64(buf[8:]),
		AppliedEpoch: binary.LittleEndian.Uint64(buf[16:]),
		MaxEpochSeen: binary.LittleEndian.Uint64(buf[24:]),
	}, nil
}

func writeResponse(w io.Writer, r response) error {
	var buf [29]byte
	copy(buf[:8], wireMagic[:])
	buf[8] = r.Status
	binary.LittleEndian.PutUint64(buf[9:], r.Epoch)
	binary.LittleEndian.PutUint64(buf[17:], r.StartSeq)
	binary.LittleEndian.PutUint32(buf[25:], r.HeartbeatMillis)
	_, err := w.Write(buf[:])
	return err
}

func readResponse(r io.Reader) (response, error) {
	var buf [29]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return response{}, err
	}
	if [8]byte(buf[:8]) != wireMagic {
		return response{}, errors.New("replica: bad response magic")
	}
	resp := response{
		Status:          buf[8],
		Epoch:           binary.LittleEndian.Uint64(buf[9:]),
		StartSeq:        binary.LittleEndian.Uint64(buf[17:]),
		HeartbeatMillis: binary.LittleEndian.Uint32(buf[25:]),
	}
	switch resp.Status {
	case statusTail, statusSnapshot, statusRejected:
		return resp, nil
	}
	return response{}, fmt.Errorf("replica: unknown response status %d", resp.Status)
}

// writeMessage frames one stream message: type, length, payload CRC,
// payload. The CRC guards the framing — individual records inside a
// msgRecords payload additionally carry their own per-frame CRCs.
func writeMessage(w io.Writer, typ uint8, payload []byte) error {
	var hdr [9]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[5:], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readMessage reads one framed stream message into buf (grown as needed),
// validating the length bound and payload CRC. Any framing failure is fatal
// to the connection: the follower resumes from its last applied seq on a
// fresh one, so corruption can delay replication but never alter it.
func readMessage(r io.Reader, buf []byte) (typ uint8, payload []byte, err error) {
	var hdr [9]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, buf, err
	}
	typ = hdr[0]
	n := binary.LittleEndian.Uint32(hdr[1:])
	crc := binary.LittleEndian.Uint32(hdr[5:])
	if n > maxMessageLen {
		return 0, buf, fmt.Errorf("replica: message of %d bytes exceeds limit", n)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	payload = buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, payload, err
	}
	if crc32.ChecksumIEEE(payload) != crc {
		return 0, payload, errors.New("replica: message CRC mismatch")
	}
	return typ, payload, nil
}

func encodeAck(buf []byte, appliedSeq uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], appliedSeq)
	return append(buf[:0], b[:]...)
}

func decodeAck(p []byte) (uint64, error) {
	if len(p) != 8 {
		return 0, fmt.Errorf("replica: ack payload is %d bytes, want 8", len(p))
	}
	return binary.LittleEndian.Uint64(p), nil
}

func encodeHeartbeat(buf []byte, hb heartbeat) []byte {
	var b [24]byte
	binary.LittleEndian.PutUint64(b[0:], hb.LastSeq)
	binary.LittleEndian.PutUint64(b[8:], uint64(hb.UnixNano))
	binary.LittleEndian.PutUint64(b[16:], hb.Epoch)
	return append(buf[:0], b[:]...)
}

func decodeHeartbeat(p []byte) (heartbeat, error) {
	if len(p) != 24 {
		return heartbeat{}, fmt.Errorf("replica: heartbeat payload is %d bytes, want 24", len(p))
	}
	return heartbeat{
		LastSeq:  binary.LittleEndian.Uint64(p[0:]),
		UnixNano: int64(binary.LittleEndian.Uint64(p[8:])),
		Epoch:    binary.LittleEndian.Uint64(p[16:]),
	}, nil
}
