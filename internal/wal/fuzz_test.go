package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	"sacsearch/internal/geom"
)

// frame wraps payload in a frame header with a freshly computed CRC, so a
// mutated payload reaches decodePayload instead of failing the checksum.
func frame(payload []byte) []byte {
	out := make([]byte, frameHeaderLen, frameHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(out[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:], crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// TestDecodeRejectsNonCanonicalInsertFlag: an edge record's insert byte is
// 0 or 1 as appendFrame writes it. A frame carrying any other value, with a
// valid CRC, used to decode as a delete — a write the log never recorded.
func TestDecodeRejectsNonCanonicalInsertFlag(t *testing.T) {
	for _, flag := range []byte{2, 0x80, 0xff} {
		r := Record{Seq: 5, Kind: KindEdge, U: 3, W: 9, Insert: true}
		payload := EncodeFrame(nil, &r)[frameHeaderLen:]
		payload[17] = flag
		if _, got, ok := DecodeFrame(frame(payload)); ok {
			t.Fatalf("insert byte %#x decoded as %+v, want ok=false", flag, got)
		}
	}
	for _, insert := range []bool{false, true} {
		r := Record{Seq: 5, Kind: KindEdge, U: 3, W: 9, Insert: insert}
		if _, got, ok := DecodeFrame(EncodeFrame(nil, &r)); !ok || got != r {
			t.Fatalf("canonical edge frame decoded as %+v ok=%v, want %+v", got, ok, r)
		}
	}
}

// FuzzDecodeFrame fuzzes a frame's payload, re-framed with a fresh CRC so the
// fuzzer explores decodePayload, and the same bytes read raw as a frame; each
// is also cut at a fuzzed torn tail. Whatever the input, DecodeFrame must not
// panic, and when it accepts it must have read no more than it was given and
// the record must re-encode to exactly the bytes it consumed. A genuine frame
// torn short, or with a CRC byte flipped, never decodes.
func FuzzDecodeFrame(f *testing.F) {
	for _, r := range []Record{
		{Seq: 1, Kind: KindCheckin, V: 7, Loc: geom.Point{X: 0.25, Y: 0.75}},
		{Seq: 2, Kind: KindEdge, U: 3, W: 9, Insert: true},
		{Seq: math.MaxUint64, Kind: KindEdge, U: math.MaxInt32, W: 0},
		{Seq: 4, Kind: KindCheckin, V: -1, Loc: geom.Point{X: math.NaN(), Y: math.Inf(-1)}},
	} {
		fr := EncodeFrame(nil, &r)
		f.Add(fr[frameHeaderLen:], uint16(len(fr)/2), byte(1))
		f.Add(fr, uint16(len(fr)-1), byte(0x80))
	}
	f.Add([]byte{}, uint16(0), byte(0))
	f.Add(make([]byte, edgePayload), uint16(3), byte(0xff))

	f.Fuzz(func(t *testing.T, payload []byte, cut uint16, flip byte) {
		framed := frame(payload)
		for _, data := range [][]byte{framed, payload} {
			checkDecode(t, data)
			checkDecode(t, data[:int(cut)%(len(data)+1)])
		}
		if _, _, ok := DecodeFrame(framed); !ok {
			return
		}
		c := int(cut) % len(framed)
		if _, _, ok := DecodeFrame(framed[:c]); ok {
			t.Fatalf("frame torn to %d of %d bytes decoded", c, len(framed))
		}
		if flip != 0 {
			bad := bytes.Clone(framed)
			bad[4+int(cut)%4] ^= flip
			if _, _, ok := DecodeFrame(bad); ok {
				t.Fatalf("frame with a flipped CRC byte decoded: %x", bad)
			}
		}
	})
}

// checkDecode asserts DecodeFrame's acceptance contract on data.
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	n, r, ok := DecodeFrame(data)
	if !ok {
		return
	}
	if n > len(data) {
		t.Fatalf("decoded %d bytes out of %d", n, len(data))
	}
	if re := EncodeFrame(nil, &r); !bytes.Equal(re, data[:n]) {
		t.Fatalf("%+v re-encodes to %x, decoded from %x", r, re, data[:n])
	}
}
