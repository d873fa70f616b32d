package replica

import (
	"bytes"
	"testing"
)

// FuzzProtocol feeds the SACREP01 decoders — readHandshake, readResponse,
// readMessage, decodeAck and decodeHeartbeat — the same arbitrary bytes.
// Whatever the input none may panic, and whatever one accepts must re-encode
// to exactly the bytes it consumed. The bytes are also framed as a stream
// message of the fuzzed type with a fresh CRC, which must read back as
// written; with one byte of its CRC or payload flipped it must not read at
// all.
func FuzzProtocol(f *testing.F) {
	var hs, rs bytes.Buffer
	if err := writeHandshake(&hs, handshake{AfterSeq: 41, AppliedEpoch: 2, MaxEpochSeen: 3}); err != nil {
		f.Fatal(err)
	}
	f.Add(hs.Bytes(), byte(0), uint16(0), byte(0))
	for _, st := range []uint8{statusTail, statusSnapshot, statusRejected, 9} {
		rs.Reset()
		if err := writeResponse(&rs, response{Status: st, Epoch: 4, StartSeq: 100, HeartbeatMillis: 250}); err != nil {
			f.Fatal(err)
		}
		f.Add(rs.Bytes(), byte(st), uint16(8), byte(1))
	}
	f.Add(encodeAck(nil, 1<<40), byte(msgAck), uint16(3), byte(0x80))
	f.Add(encodeHeartbeat(nil, heartbeat{LastSeq: 7, UnixNano: -1, Epoch: 1}), byte(msgHeartbeat), uint16(30), byte(0xff))
	f.Add([]byte{msgRecords, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}, byte(msgRecords), uint16(1), byte(2))
	f.Add([]byte{}, byte(0), uint16(0), byte(0))

	f.Fuzz(func(t *testing.T, data []byte, typ byte, at uint16, flip byte) {
		var out bytes.Buffer
		if h, err := readHandshake(bytes.NewReader(data)); err == nil {
			out.Reset()
			writeHandshake(&out, h)
			if !bytes.HasPrefix(data, out.Bytes()) {
				t.Fatalf("handshake %+v re-encodes to %x, read from %x", h, out.Bytes(), data)
			}
		}
		if r, err := readResponse(bytes.NewReader(data)); err == nil {
			out.Reset()
			writeResponse(&out, r)
			if !bytes.HasPrefix(data, out.Bytes()) {
				t.Fatalf("response %+v re-encodes to %x, read from %x", r, out.Bytes(), data)
			}
		}
		if mt, p, err := readMessage(bytes.NewReader(data), nil); err == nil {
			out.Reset()
			writeMessage(&out, mt, p)
			if !bytes.HasPrefix(data, out.Bytes()) {
				t.Fatalf("message type %d re-encodes to %x, read from %x", mt, out.Bytes(), data)
			}
		}
		if seq, err := decodeAck(data); err == nil && !bytes.Equal(encodeAck(nil, seq), data) {
			t.Fatalf("ack %d re-encodes differently from %x", seq, data)
		}
		if hb, err := decodeHeartbeat(data); err == nil && !bytes.Equal(encodeHeartbeat(nil, hb), data) {
			t.Fatalf("heartbeat %+v re-encodes differently from %x", hb, data)
		}

		out.Reset()
		writeMessage(&out, typ, data)
		framed := out.Bytes()
		mt, p, err := readMessage(bytes.NewReader(framed), nil)
		if len(data) > maxMessageLen {
			if err == nil {
				t.Fatalf("a %d-byte message over the %d limit was read", len(data), maxMessageLen)
			}
			return
		}
		if err != nil || mt != typ || !bytes.Equal(p, data) {
			t.Fatalf("framed message read back as (%d, %x, %v), want (%d, %x)", mt, p, err, typ, data)
		}
		if flip == 0 {
			return
		}
		// Bytes 5-8 are the CRC, the rest the payload.
		span := 4 + len(data)
		bad := bytes.Clone(framed)
		bad[5+int(at)%span] ^= flip
		if _, _, err := readMessage(bytes.NewReader(bad), nil); err == nil {
			t.Fatalf("message with byte %d flipped by %#x was read", 5+int(at)%span, flip)
		}
	})
}
