package shard

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// The shard-map artifact is the versioned, checksummed file every shard and
// the router load at boot; /v1/shard/info reports its checksum so a mixed
// topology (shards cut from different maps) is detectable.
//
//	magic   "SACSHM01"        8 bytes
//	version u32 little-endian (format version, currently 1)
//	shards  u32
//	n       u64
//	edges   u64
//	cross   u64
//	owner   n × u16           owning shard per vertex
//	crc     u32               IEEE CRC-32 of everything above

const (
	mapMagic   = "SACSHM01"
	mapVersion = 1
)

type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p)
	return c.w.Write(p)
}

// writeBody serializes everything the trailing CRC covers.
func (m *Map) writeBody(w io.Writer) error {
	if _, err := io.WriteString(w, mapMagic); err != nil {
		return err
	}
	hdr := make([]byte, 4+4+8+8+8)
	binary.LittleEndian.PutUint32(hdr[0:], mapVersion)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(m.Shards))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(m.N))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(m.Edges))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(m.CrossEdges))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	buf := make([]byte, 2*4096)
	for off := 0; off < len(m.Owner); {
		nn := 0
		for off < len(m.Owner) && nn+2 <= len(buf) {
			binary.LittleEndian.PutUint16(buf[nn:], m.Owner[off])
			nn += 2
			off++
		}
		if _, err := w.Write(buf[:nn]); err != nil {
			return err
		}
	}
	return nil
}

// WriteMap serializes m. The output is deterministic: the same Map always
// produces the same bytes.
func (m *Map) WriteMap(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cw := &crcWriter{w: bw}
	if err := m.writeBody(cw); err != nil {
		return err
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], cw.crc)
	if _, err := bw.Write(tail[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// Checksum returns the artifact CRC — the content identity /v1/shard/info
// and the router use to verify every node loaded the same map.
func (m *Map) Checksum() uint32 {
	cw := &crcWriter{w: io.Discard}
	_ = m.writeBody(cw)
	return cw.crc
}

// ReadMap deserializes and validates a shard map written by WriteMap.
func ReadMap(r io.Reader) (*Map, error) {
	br := bufio.NewReader(r)
	crc := uint32(0)
	read := func(p []byte) error {
		if _, err := io.ReadFull(br, p); err != nil {
			return fmt.Errorf("shard: truncated shard map: %w", err)
		}
		crc = crc32.Update(crc, crc32.IEEETable, p)
		return nil
	}
	magic := make([]byte, len(mapMagic))
	if err := read(magic); err != nil {
		return nil, err
	}
	if string(magic) != mapMagic {
		return nil, fmt.Errorf("shard: bad shard-map magic %q", magic)
	}
	hdr := make([]byte, 4+4+8+8+8)
	if err := read(hdr); err != nil {
		return nil, err
	}
	if v := binary.LittleEndian.Uint32(hdr[0:]); v != mapVersion {
		return nil, fmt.Errorf("shard: unsupported shard-map version %d (want %d)", v, mapVersion)
	}
	m := &Map{
		Shards:     int(binary.LittleEndian.Uint32(hdr[4:])),
		N:          int(binary.LittleEndian.Uint64(hdr[8:])),
		Edges:      int(binary.LittleEndian.Uint64(hdr[16:])),
		CrossEdges: int(binary.LittleEndian.Uint64(hdr[24:])),
	}
	if m.Shards < 1 || m.Shards > 1<<16 {
		return nil, fmt.Errorf("shard: shard map declares %d shards", m.Shards)
	}
	if m.N < 0 || m.N > 1<<31 {
		return nil, fmt.Errorf("shard: shard map declares %d vertices", m.N)
	}
	// The owner table grows with the bytes actually read, never with the
	// header's claim: a short file declaring 2^31 vertices fails as truncated
	// without allocating 4 GiB first.
	buf := make([]byte, 2*4096)
	m.Owner = make([]uint16, 0, min(m.N, len(buf)/2))
	for len(m.Owner) < m.N {
		chunk := 2 * min(m.N-len(m.Owner), len(buf)/2)
		if err := read(buf[:chunk]); err != nil {
			return nil, err
		}
		for i := 0; i < chunk; i += 2 {
			m.Owner = append(m.Owner, binary.LittleEndian.Uint16(buf[i:]))
		}
	}
	want := crc
	var tail [4]byte
	if _, err := io.ReadFull(br, tail[:]); err != nil {
		return nil, fmt.Errorf("shard: truncated shard map: %w", err)
	}
	if got := binary.LittleEndian.Uint32(tail[:]); got != want {
		return nil, fmt.Errorf("shard: shard-map checksum mismatch (file %08x, computed %08x)", got, want)
	}
	for v, o := range m.Owner {
		if int(o) >= m.Shards {
			return nil, fmt.Errorf("shard: vertex %d assigned to shard %d of %d", v, o, m.Shards)
		}
	}
	return m, nil
}
