package graph

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzReadBinary throws hostile bytes at the binary graph decoder: whatever
// the input, ReadBinary must return a well-formed graph or an error — never
// panic, never allocate proportionally to a lying header, and anything it
// accepts must re-encode and re-decode to the same graph (the decoder's
// validation is the writer's invariant set).
func FuzzReadBinary(f *testing.F) {
	// Valid encodings of several shapes seed the corpus.
	for _, tc := range []struct{ n, edges int }{
		{0, 0},
		{1, 0},
		{2, 1},
		{30, 120},
	} {
		g := randomSpatial(int64(tc.n+1), tc.n, tc.edges)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// The corruption cases binio_test exercises: truncations, bit flips, a
	// damaged trailer, bad magic and an absurd header.
	{
		g := randomSpatial(3, 40, 150)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			f.Fatal(err)
		}
		full := buf.Bytes()
		for _, cut := range []int{0, 4, 8, 20, len(full) / 2, len(full) - 1} {
			f.Add(append([]byte(nil), full[:cut]...))
		}
		for _, pos := range []int{8, 24, len(full) / 3, len(full) / 2, len(full) - 2, len(full) - 1} {
			corrupt := append([]byte(nil), full...)
			corrupt[pos] ^= 0xff
			f.Add(corrupt)
		}
	}
	// Checksummed files an in-memory graph cannot produce: an edge listed
	// from one end only, and a self-loop.
	f.Add(encodeRows([][]V{{2}, {2}, {}}))
	f.Add(encodeRows([][]V{{0}, {1}}))
	f.Add([]byte("NOTAGRAPHFILE...."))
	{
		// Header claims 2^63-ish vertices over an empty stream.
		var buf bytes.Buffer
		buf.Write(binMagic[:])
		buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
		buf.Write([]byte{0, 0, 0, 0, 0, 0, 0, 0})
		f.Add(buf.Bytes())
	}
	{
		// Plausible vertex count, absurd edge count: the allocation-guard
		// case (2m would overflow the int32 offset domain).
		var buf bytes.Buffer
		buf.Write(binMagic[:])
		var u64 [8]byte
		binary.LittleEndian.PutUint64(u64[:], 1000)
		buf.Write(u64[:])
		binary.LittleEndian.PutUint64(u64[:], 1<<40)
		buf.Write(u64[:])
		f.Add(buf.Bytes())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted input: the graph must satisfy the structural contract —
		// in-range, symmetric, loop-free adjacency — well enough to serialize
		// and round-trip bit-compatibly.
		n := g.NumVertices()
		for v := 0; v < n; v++ {
			for _, u := range g.Neighbors(V(v)) {
				if u < 0 || int(u) >= n {
					t.Fatalf("accepted graph has out-of-range neighbor %d of %d", u, v)
				}
				if u == V(v) {
					t.Fatalf("accepted graph has a self-loop at %d", v)
				}
				if !g.HasEdge(u, V(v)) {
					t.Fatalf("accepted graph lists %d in N(%d) but not %d in N(%d)", u, v, v, u)
				}
			}
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatalf("accepted graph does not re-encode: %v", err)
		}
		g2, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("re-encoded graph does not decode: %v", err)
		}
		if g2.NumVertices() != n || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip drifted: (%d,%d) -> (%d,%d)",
				n, g.NumEdges(), g2.NumVertices(), g2.NumEdges())
		}
	})
}
