package shard

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// mapHeader is a SACSHM01 header declaring n vertices over two shards, with
// no owner table and no checksum after it.
func mapHeader(n uint64) []byte {
	hdr := append([]byte(mapMagic), make([]byte, 4+4+8+8+8)...)
	binary.LittleEndian.PutUint32(hdr[8:], mapVersion)
	binary.LittleEndian.PutUint32(hdr[12:], 2)
	binary.LittleEndian.PutUint64(hdr[16:], n)
	return hdr
}

// TestReadMapTrustsNoVertexCount: the owner table used to be allocated at
// the header's vertex count before a byte of it was read, so 40 bytes
// declaring 2^31 vertices cost 4 GiB. Reading must fail as truncated having
// allocated in proportion to the input.
func TestReadMapTrustsNoVertexCount(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadMap(bytes.NewReader(mapHeader(1 << 26)))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a header with no owner table decoded")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("refusing a 40-byte map allocated %d bytes", got)
	}
}

// FuzzReadMap feeds ReadMap arbitrary bytes. Whatever the input it must not
// panic, and a map it accepts must re-encode through WriteMap to exactly the
// bytes it read: a prefix of the input, checksum included, so a CRC mismatch
// is never accepted. A genuine map with one byte flipped never decodes.
func FuzzReadMap(f *testing.F) {
	for _, m := range []*Map{
		{Shards: 1, N: 0, Owner: []uint16{}},
		{Shards: 2, N: 5, Edges: 7, CrossEdges: 3, Owner: []uint16{0, 1, 1, 0, 1}},
		{Shards: 3, N: 3, Edges: -1, Owner: []uint16{2, 0, 2}},
	} {
		var buf bytes.Buffer
		if err := m.WriteMap(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), uint16(0), byte(1))
		f.Add(buf.Bytes()[:buf.Len()-1], uint16(9), byte(0x80))
	}
	f.Add(mapHeader(1<<31), uint16(3), byte(0xff))
	f.Add([]byte(mapMagic), uint16(0), byte(0))

	f.Fuzz(func(t *testing.T, data []byte, at uint16, flip byte) {
		m, err := ReadMap(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := m.WriteMap(&buf); err != nil {
			t.Fatal(err)
		}
		enc := buf.Bytes()
		if !bytes.HasPrefix(data, enc) {
			t.Fatalf("map %+v re-encodes to %x, decoded from %x", m, enc, data)
		}
		if flip != 0 {
			bad := bytes.Clone(enc)
			bad[int(at)%len(bad)] ^= flip
			if _, err := ReadMap(bytes.NewReader(bad)); err == nil {
				t.Fatalf("map with byte %d flipped by %#x decoded", int(at)%len(bad), flip)
			}
		}
	})
}
