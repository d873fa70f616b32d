package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
)

// frame wraps payload in a frame header with a freshly computed CRC, so a
// mutated payload reaches the payload decoder instead of failing the checksum.
func frame(payload []byte) []byte {
	out := make([]byte, frameHeaderLen, frameHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(out[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:], crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// TestDecodeRejectsNonCanonicalInsertFlag: an edge record's insert byte is
// 0 or 1 as EncodeFrame writes it. A frame carrying any other value, with a
// valid CRC, used to decode as a delete — a write the log never recorded.
func TestDecodeRejectsNonCanonicalInsertFlag(t *testing.T) {
	for _, flag := range []byte{2, 0x80, 0xff} {
		payload := EncodeFrame(nil, 5, graph.Write{Kind: graph.WriteAddEdge, V: 3, W: 9})[frameHeaderLen:]
		payload[17] = flag
		if _, _, got, ok := DecodeFrame(frame(payload)); ok {
			t.Fatalf("insert byte %#x decoded as %+v, want ok=false", flag, got)
		}
	}
	for _, kind := range []graph.WriteKind{graph.WriteRemoveEdge, graph.WriteAddEdge} {
		w := graph.Write{Kind: kind, V: 3, W: 9}
		if _, seq, got, ok := DecodeFrame(EncodeFrame(nil, 5, w)); !ok || seq != 5 || got != w {
			t.Fatalf("canonical edge frame decoded as %d %+v ok=%v, want 5 %+v", seq, got, ok, w)
		}
	}
}

// TestFrameBytesPinned: the bytes a segment file stores and a follower
// receives, recorded before the log took graph.Write. A check-in, an insert,
// a delete, the largest sequence and the largest vertex id.
func TestFrameBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		seq uint64
		w   graph.Write
		hex string
	}{
		{1, graph.Write{Kind: graph.WriteCheckin, V: 7, Loc: geom.Point{X: 0.25, Y: 0.75}},
			"1d0000009ced959801000000000000000107000000000000000000d03f000000000000e83f"},
		{2, graph.Write{Kind: graph.WriteAddEdge, V: 3, W: 9},
			"12000000d11aa025020000000000000002030000000900000001"},
		{3, graph.Write{Kind: graph.WriteRemoveEdge, V: 3, W: 9},
			"12000000a69cf5bd030000000000000002030000000900000000"},
		{math.MaxUint64, graph.Write{Kind: graph.WriteCheckin, V: math.MaxInt32, Loc: geom.Point{X: -1.5, Y: 1e300}},
			"1d000000a187b0dcffffffffffffffff01ffffff7f000000000000f8bf9c7500883ce4377e"},
		{5, graph.Write{Kind: graph.WriteRemoveEdge, V: math.MaxInt32, W: 0},
			"120000001e815280050000000000000002ffffff7f0000000000"},
	} {
		fr := EncodeFrame(nil, tc.seq, tc.w)
		if got := hex.EncodeToString(fr); got != tc.hex {
			t.Fatalf("frame of %d %+v = %s, want %s", tc.seq, tc.w, got, tc.hex)
		}
		if n, seq, w, ok := DecodeFrame(fr); !ok || n != len(fr) || seq != tc.seq || w != tc.w {
			t.Fatalf("%s decoded as %d bytes, %d %+v, ok=%v", tc.hex, n, seq, w, ok)
		}
	}
}

// FuzzDecodeFrame fuzzes a frame's payload, re-framed with a fresh CRC so the
// fuzzer explores the payload decoder, and the same bytes read raw as a frame; each
// is also cut at a fuzzed torn tail. Whatever the input, DecodeFrame must not
// panic, and when it accepts it must have read no more than it was given and
// the record must re-encode to exactly the bytes it consumed. A genuine frame
// torn short, or with a CRC byte flipped, never decodes.
func FuzzDecodeFrame(f *testing.F) {
	for _, r := range []struct {
		seq uint64
		w   graph.Write
	}{
		{1, graph.Write{Kind: graph.WriteCheckin, V: 7, Loc: geom.Point{X: 0.25, Y: 0.75}}},
		{2, graph.Write{Kind: graph.WriteAddEdge, V: 3, W: 9}},
		{math.MaxUint64, graph.Write{Kind: graph.WriteRemoveEdge, V: math.MaxInt32, W: 0}},
		{4, graph.Write{Kind: graph.WriteCheckin, V: -1, Loc: geom.Point{X: math.NaN(), Y: math.Inf(-1)}}},
	} {
		fr := EncodeFrame(nil, r.seq, r.w)
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
		if _, _, _, ok := DecodeFrame(framed); !ok {
			return
		}
		c := int(cut) % len(framed)
		if _, _, _, ok := DecodeFrame(framed[:c]); ok {
			t.Fatalf("frame torn to %d of %d bytes decoded", c, len(framed))
		}
		if flip != 0 {
			bad := bytes.Clone(framed)
			bad[4+int(cut)%4] ^= flip
			if _, _, _, ok := DecodeFrame(bad); ok {
				t.Fatalf("frame with a flipped CRC byte decoded: %x", bad)
			}
		}
	})
}

// checkDecode asserts DecodeFrame's acceptance contract on data.
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	n, seq, w, ok := DecodeFrame(data)
	if !ok {
		return
	}
	if n > len(data) {
		t.Fatalf("decoded %d bytes out of %d", n, len(data))
	}
	if re := EncodeFrame(nil, seq, w); !bytes.Equal(re, data[:n]) {
		t.Fatalf("%d %+v re-encodes to %x, decoded from %x", seq, w, re, data[:n])
	}
}

// FuzzReplayMatchesCursor fuzzes the bytes of the last segment, past its
// magic, behind a sealed segment holding records 1..5. The log's readers
// must agree on them: Replay(dir, 0) and a cursor from 0 drained until it is
// caught up both fail, or both stop cleanly having delivered the same
// records, and Open fails exactly when they do. The seeds are the segment as
// written (records 6..45), torn, zero-padded, and with one byte of its 21st
// record flipped: a cursor once handed out 20 records there and then idled
// as caught up, while Replay and Open failed.
func FuzzReplayMatchesCursor(f *testing.F) {
	var seg []byte
	for i := range 40 {
		seg = EncodeFrame(seg, uint64(6+i), rec(i))
	}
	f.Add(seg)
	f.Add(seg[:len(seg)-5])
	f.Add(append(bytes.Clone(seg), make([]byte, 64)...))
	off := 0
	for range 20 {
		n, _, _, _ := DecodeFrame(seg[off:])
		off += n
	}
	bad := bytes.Clone(seg)
	bad[off+frameHeaderLen+2] ^= 0xff
	f.Add(bad)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		sealed := append([]byte(nil), segMagic[:]...)
		for i := range 5 {
			sealed = EncodeFrame(sealed, uint64(1+i), rec(100+i))
		}
		if err := os.WriteFile(filepath.Join(dir, segName(1)), sealed, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segName(6)), append(segMagic[:], data...), 0o644); err != nil {
			t.Fatal(err)
		}
		var replayed, drained []byte
		_, rerr := Replay(dir, 0, func(seq uint64, w graph.Write) error {
			replayed = EncodeFrame(replayed, seq, w)
			return nil
		})
		c, cerr := OpenCursor(dir, 0)
		for cerr == nil {
			var n int
			if drained, n, cerr = c.Next(drained, 7); n == 0 {
				break
			}
		}
		if c != nil {
			c.Close()
		}
		if (rerr == nil) != (cerr == nil) {
			t.Fatalf("Replay err = %v, drained cursor err = %v", rerr, cerr)
		}
		if rerr == nil && !bytes.Equal(replayed, drained) {
			t.Fatalf("Replay delivered %x, the cursor %x", replayed, drained)
		}
		l, oerr := Open(dir, 0, Options{})
		if oerr == nil {
			l.Close()
		}
		if (oerr == nil) != (rerr == nil) {
			t.Fatalf("Open err = %v, Replay err = %v", oerr, rerr)
		}
	})
}
