package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"sacsearch/internal/geom"
)

// Binary graph format. Text edge lists (io.go) parse in O(m) string splits;
// for the multi-million-vertex graphs the paper targets (Foursquare: 2.1M
// vertices, 8.6M edges) reload time is dominated by parsing, so the binary
// format serializes the CSR arrays directly:
//
//	magic    "SACGRPH1"                     (8 bytes)
//	n, m     uint64 little-endian           (vertex and undirected edge counts)
//	offsets  (n+1) × int32 little-endian    (CSR row offsets)
//	adj      2m × int32 little-endian       (CSR adjacency, both directions)
//	locs     2n × float64 little-endian     (x, y per vertex)
//	crc      uint32 little-endian           (IEEE CRC-32 of everything above)
//
// ReadBinary validates the checksum and the structural invariants (monotone
// offsets, sorted in-range adjacency rows that list every edge from both
// ends and no self-loop, finite coordinates) so a
// truncated or corrupted file fails loudly instead of producing a graph that
// crashes algorithms later.

var binMagic = [8]byte{'S', 'A', 'C', 'G', 'R', 'P', 'H', '1'}

// maxBinVertices bounds n on read so a corrupted header cannot trigger a
// multi-terabyte allocation.
const maxBinVertices = 1 << 31

// WriteBinary serializes g to w in the binary CSR format, joining its pages
// into one CSR. It is a pure reader and may run under the same read lock as
// queries.
func WriteBinary(w io.Writer, g *Graph) error {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), 1<<20)

	if _, err := bw.Write(binMagic[:]); err != nil {
		return fmt.Errorf("graph: writing magic: %w", err)
	}
	var u64 [8]byte
	writeU64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(u64[:], v)
		_, err := bw.Write(u64[:])
		return err
	}
	n := g.NumVertices()
	if err := writeU64(uint64(n)); err != nil {
		return fmt.Errorf("graph: writing n: %w", err)
	}
	if err := writeU64(uint64(g.m)); err != nil {
		return fmt.Errorf("graph: writing m: %w", err)
	}

	var b4 [4]byte
	writeI32 := func(v int32) error {
		binary.LittleEndian.PutUint32(b4[:], uint32(v))
		_, err := bw.Write(b4[:])
		return err
	}
	off := int32(0)
	if err := writeI32(off); err != nil {
		return fmt.Errorf("graph: writing offsets: %w", err)
	}
	for v := 0; v < n; v++ {
		off += int32(g.Degree(V(v)))
		if err := writeI32(off); err != nil {
			return fmt.Errorf("graph: writing offsets: %w", err)
		}
	}
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(V(v)) {
			if err := writeI32(u); err != nil {
				return fmt.Errorf("graph: writing adjacency: %w", err)
			}
		}
	}
	var b8 [8]byte
	writeF64 := func(v float64) error {
		binary.LittleEndian.PutUint64(b8[:], math.Float64bits(v))
		_, err := bw.Write(b8[:])
		return err
	}
	for _, p := range g.locs {
		if err := writeF64(p.X); err != nil {
			return fmt.Errorf("graph: writing locations: %w", err)
		}
		if err := writeF64(p.Y); err != nil {
			return fmt.Errorf("graph: writing locations: %w", err)
		}
	}
	// The checksum covers everything buffered so far; flush the payload
	// into the hash before reading its sum, then write the trailer to w
	// only (the trailer does not checksum itself).
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("graph: flushing payload: %w", err)
	}
	binary.LittleEndian.PutUint32(b4[:], crc.Sum32())
	if _, err := w.Write(b4[:]); err != nil {
		return fmt.Errorf("graph: writing checksum: %w", err)
	}
	return nil
}

// BinarySize returns the number of bytes WriteBinary writes for g.
func BinarySize(g *Graph) int64 {
	n, m := int64(g.NumVertices()), int64(g.NumEdges())
	return 8 + 16 + 4*(n+1) + 4*2*m + 16*n + 4
}

// crcReader tees everything read into a CRC-32.
type crcReader struct {
	r   io.Reader
	crc hash.Hash32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 {
		c.crc.Write(p[:n])
	}
	return n, err
}

// ReadBinary deserializes a graph written by WriteBinary, verifying the
// checksum and structural invariants.
func ReadBinary(r io.Reader) (*Graph, error) {
	cr := &crcReader{r: bufio.NewReaderSize(r, 1<<20), crc: crc32.NewIEEE()}

	var magic [8]byte
	if _, err := io.ReadFull(cr, magic[:]); err != nil {
		return nil, fmt.Errorf("graph: reading magic: %w", err)
	}
	if magic != binMagic {
		return nil, fmt.Errorf("graph: bad magic %q (not a sacsearch binary graph)", magic)
	}
	var hdr [16]byte
	if _, err := io.ReadFull(cr, hdr[:]); err != nil {
		return nil, fmt.Errorf("graph: reading header: %w", err)
	}
	n := binary.LittleEndian.Uint64(hdr[0:8])
	m := binary.LittleEndian.Uint64(hdr[8:16])
	if n > maxBinVertices {
		return nil, fmt.Errorf("graph: header claims %d vertices (max %d)", n, maxBinVertices)
	}
	if m > uint64(n)*uint64(n) {
		return nil, fmt.Errorf("graph: header claims %d edges for %d vertices", m, n)
	}
	// Offsets are int32, so the adjacency array (2m entries) must index
	// within int32 — a header past that bound cannot have been written by
	// WriteBinary and would otherwise overflow the counts below.
	if m > (1<<31-1)/2 {
		return nil, fmt.Errorf("graph: header claims %d edges (max %d)", m, (1<<31-1)/2)
	}

	// Decoder allocations are guarded by actual input, not the header: a
	// hostile header claiming 2^31 vertices over a 50-byte stream must fail
	// at the stream's real end having allocated at most the bytes that were
	// really there, never the terabytes the header promised.
	buf := make([]byte, 4*1024)
	readI32s := func(out []int32, count int, what string) ([]int32, error) {
		out = slices.Grow(out, min(count, 1<<20))
		for done := 0; done < count; {
			chunk := len(buf) / 4
			if rem := count - done; rem < chunk {
				chunk = rem
			}
			if _, err := io.ReadFull(cr, buf[:4*chunk]); err != nil {
				return nil, fmt.Errorf("graph: reading %s: %w", what, err)
			}
			for i := 0; i < chunk; i++ {
				out = append(out, int32(binary.LittleEndian.Uint32(buf[4*i:])))
			}
			done += chunk
		}
		return out, nil
	}

	offsets, err := readI32s(nil, int(n)+1, "offsets")
	if err != nil {
		return nil, err
	}
	if offsets[0] != 0 {
		return nil, fmt.Errorf("graph: offsets[0] = %d, want 0", offsets[0])
	}
	for i := 1; i < len(offsets); i++ {
		if offsets[i] < offsets[i-1] {
			return nil, fmt.Errorf("graph: offsets not monotone at %d", i)
		}
	}
	if uint64(offsets[n]) != 2*m {
		return nil, fmt.Errorf("graph: offsets[n] = %d, want 2m = %d", offsets[n], 2*m)
	}

	// The rows are read a page at a time and cut straight into pages, so the
	// adjacency is never held twice.
	g := &Graph{n: int(n), m: int(m)}
	var rows []int32
	for lo := 0; lo < int(n); lo += pageSize {
		off := offsets[lo : min(lo+pageSize, int(n))+1]
		if rows, err = readI32s(rows[:0], int(off[len(off)-1]-off[0]), "adjacency"); err != nil {
			return nil, err
		}
		g.pages = append(g.pages, pagesOf(off, rows)...)
	}
	for v := 0; v < int(n); v++ {
		row := g.Neighbors(V(v))
		for i, u := range row {
			if u < 0 || uint64(u) >= n {
				return nil, fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", v, u)
			}
			if i > 0 && row[i-1] >= u {
				return nil, fmt.Errorf("graph: adjacency row of %d not strictly sorted", v)
			}
		}
	}
	// Every edge is listed from both ends and no vertex lists itself, checked
	// in one O(n+m) pass: cursor[u] indexes u's first neighbour above u not
	// yet matched, and each v, visited in ascending order, must be exactly
	// that neighbour of every u < v it lists.
	asymmetric := func(a, b V) error {
		return fmt.Errorf("graph: adjacency not symmetric: %d lists %d but %d does not list %d", a, b, b, a)
	}
	cursor := make([]int32, n)
	for v := 0; v < int(n); v++ {
		row, i := g.Neighbors(V(v)), 0
		for ; i < len(row) && row[i] < V(v); i++ {
			u := row[i]
			if nb, c := g.Neighbors(u), cursor[u]; int(c) == len(nb) || nb[c] > V(v) {
				return nil, asymmetric(V(v), u)
			} else if nb[c] < V(v) {
				return nil, asymmetric(u, nb[c])
			}
			cursor[u]++
		}
		if i < len(row) && row[i] == V(v) {
			return nil, fmt.Errorf("graph: vertex %d lists itself as a neighbor", v)
		}
		cursor[v] = int32(i)
	}
	for u := 0; u < int(n); u++ {
		if nb, c := g.Neighbors(V(u)), cursor[u]; int(c) < len(nb) {
			return nil, asymmetric(V(u), nb[c])
		}
	}

	initialLocs := int(n)
	if initialLocs > 1<<19 {
		initialLocs = 1 << 19 // same header-skepticism as readI32s
	}
	g.locs = make([]geom.Point, 0, initialLocs)
	{
		buf := make([]byte, 16*1024)
		for done := 0; done < int(n); {
			chunk := len(buf) / 16
			if rem := int(n) - done; rem < chunk {
				chunk = rem
			}
			if _, err := io.ReadFull(cr, buf[:16*chunk]); err != nil {
				return nil, fmt.Errorf("graph: reading locations: %w", err)
			}
			for i := 0; i < chunk; i++ {
				x := math.Float64frombits(binary.LittleEndian.Uint64(buf[16*i:]))
				y := math.Float64frombits(binary.LittleEndian.Uint64(buf[16*i+8:]))
				if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
					return nil, fmt.Errorf("graph: vertex %d has non-finite location", done+i)
				}
				g.locs = append(g.locs, geom.Point{X: x, Y: y})
			}
			done += chunk
		}
	}

	wantSum := cr.crc.Sum32()
	var trailer [4]byte
	if _, err := io.ReadFull(cr.r, trailer[:]); err != nil {
		return nil, fmt.Errorf("graph: reading checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(trailer[:]); got != wantSum {
		return nil, fmt.Errorf("graph: checksum mismatch (file %08x, computed %08x)", got, wantSum)
	}

	return g, nil
}
