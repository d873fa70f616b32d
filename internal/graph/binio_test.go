package graph

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"

	"sacsearch/internal/geom"
)

// randomSpatial builds a random graph with locations in the unit square.
func randomSpatial(seed int64, n, edges int) *Graph {
	rnd := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for i := 0; i < edges; i++ {
		b.AddEdge(V(rnd.Intn(n)), V(rnd.Intn(n)))
	}
	for v := 0; v < n; v++ {
		b.SetLoc(V(v), geom.Point{X: rnd.Float64(), Y: rnd.Float64()})
	}
	return b.Build()
}

func graphsEqual(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("size mismatch: (%d,%d) vs (%d,%d)",
			a.NumVertices(), a.NumEdges(), b.NumVertices(), b.NumEdges())
	}
	for v := 0; v < a.NumVertices(); v++ {
		na, nb := a.Neighbors(V(v)), b.Neighbors(V(v))
		if len(na) != len(nb) {
			t.Fatalf("vertex %d: degree %d vs %d", v, len(na), len(nb))
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("vertex %d: neighbor %d differs", v, i)
			}
		}
		if a.Loc(V(v)) != b.Loc(V(v)) {
			t.Fatalf("vertex %d: location differs", v)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, tc := range []struct{ n, edges int }{
		{1, 0},
		{2, 1},
		{50, 200},
		{500, 3000},
	} {
		g := randomSpatial(int64(tc.n), tc.n, tc.edges)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatalf("n=%d: write: %v", tc.n, err)
		}
		if int64(buf.Len()) != BinarySize(g) {
			t.Fatalf("n=%d: wrote %d bytes, BinarySize says %d", tc.n, buf.Len(), BinarySize(g))
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("n=%d: read: %v", tc.n, err)
		}
		graphsEqual(t, g, got)
	}
}

func TestBinaryRoundTripEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices() != 0 || got.NumEdges() != 0 {
		t.Fatalf("empty graph round-trip: %d vertices %d edges", got.NumVertices(), got.NumEdges())
	}
}

func TestBinaryBadMagic(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("NOTAGRAPHFILE....")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestBinaryTruncated(t *testing.T) {
	g := randomSpatial(3, 40, 150)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every strict prefix must fail (never silently produce a graph).
	for _, cut := range []int{0, 4, 8, 20, len(full) / 2, len(full) - 1} {
		if _, err := ReadBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestBinaryCorruptedPayload(t *testing.T) {
	g := randomSpatial(5, 60, 240)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Flip one byte at several positions; structural validation or the
	// checksum must reject every one.
	for _, pos := range []int{24, len(full) / 3, len(full) / 2, len(full) - 2} {
		corrupt := append([]byte(nil), full...)
		corrupt[pos] ^= 0xff
		if _, err := ReadBinary(bytes.NewReader(corrupt)); err == nil {
			t.Fatalf("corruption at byte %d accepted", pos)
		}
	}
}

func TestBinaryChecksumTrailer(t *testing.T) {
	g := randomSpatial(7, 30, 90)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	corrupt := append([]byte(nil), full...)
	corrupt[len(corrupt)-1] ^= 0x01
	_, err := ReadBinary(bytes.NewReader(corrupt))
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("trailer corruption: err = %v, want checksum mismatch", err)
	}
}

func TestBinaryHeaderSanity(t *testing.T) {
	// A header claiming an absurd vertex count must be rejected before any
	// allocation is attempted.
	var buf bytes.Buffer
	buf.Write(binMagic[:])
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // n
	buf.Write([]byte{0, 0, 0, 0, 0, 0, 0, 0})                         // m
	if _, err := ReadBinary(&buf); err == nil {
		t.Fatal("absurd header accepted")
	}
}

// encodeRows writes adjacency rows in the binary format exactly as given,
// with every location at the origin and a valid checksum — the bytes a
// writer that breaks the format's invariants would produce.
func encodeRows(rows [][]V) []byte {
	le := binary.LittleEndian
	entries := 0
	for _, r := range rows {
		entries += len(r)
	}
	out := append([]byte(nil), binMagic[:]...)
	out = le.AppendUint64(out, uint64(len(rows)))
	out = le.AppendUint64(out, uint64(entries/2))
	out = le.AppendUint32(out, 0)
	off := uint32(0)
	for _, r := range rows {
		off += uint32(len(r))
		out = le.AppendUint32(out, off)
	}
	for _, r := range rows {
		for _, u := range r {
			out = le.AppendUint32(out, uint32(u))
		}
	}
	out = append(out, make([]byte, 16*len(rows))...)
	return le.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// TestBinaryRefusesAsymmetricOrLoopedAdjacency: no graph in memory has an
// edge listed from one end only or a self-loop (Builder.Build drops loops,
// AddEdge refuses them), so a checksummed file that has one must not load.
func TestBinaryRefusesAsymmetricOrLoopedAdjacency(t *testing.T) {
	for _, tc := range []struct {
		name string
		rows [][]V
		want string
	}{
		{"one-sided edge", [][]V{{2}, {2}, {}}, "0 lists 2 but 2 does not list 0"},
		{"one-sided from above", [][]V{{}, {}, {0, 1}}, "2 lists 0 but 0 does not list 2"},
		{"mismatched rows", [][]V{{1, 2}, {0}, {1}}, "2 lists 1 but 1 does not list 2"},
		{"row skips its lower neighbour", [][]V{{1, 2}, {2}, {0, 1}, {4}, {}}, "0 lists 1 but 1 does not list 0"},
		{"self-loop", [][]V{{0}, {1}}, "vertex 0 lists itself"},
		{"self-loop in a symmetric graph", [][]V{{1}, {0, 1, 2}, {1, 2}}, "vertex 1 lists itself"},
	} {
		_, err := ReadBinary(bytes.NewReader(encodeRows(tc.rows)))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
	// The same encoder's symmetric, loop-free rows load.
	if _, err := ReadBinary(bytes.NewReader(encodeRows([][]V{{1, 2}, {0}, {0}}))); err != nil {
		t.Fatalf("valid rows refused: %v", err)
	}
}

func TestBinaryMatchesTextFormats(t *testing.T) {
	g := randomSpatial(11, 80, 400)

	var bin bytes.Buffer
	if err := WriteBinary(&bin, g); err != nil {
		t.Fatal(err)
	}
	fromBin, err := ReadBinary(&bin)
	if err != nil {
		t.Fatal(err)
	}

	var edges, locs bytes.Buffer
	if err := WriteEdges(&edges, g); err != nil {
		t.Fatal(err)
	}
	if err := WriteLocations(&locs, g); err != nil {
		t.Fatal(err)
	}
	fromText, err := Read(&edges, &locs, g.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	// Topology must match exactly; locations only within the text format's
	// %.9f precision (binary is bit-exact).
	if fromBin.NumVertices() != fromText.NumVertices() || fromBin.NumEdges() != fromText.NumEdges() {
		t.Fatalf("size mismatch: (%d,%d) vs (%d,%d)",
			fromBin.NumVertices(), fromBin.NumEdges(), fromText.NumVertices(), fromText.NumEdges())
	}
	for v := 0; v < fromBin.NumVertices(); v++ {
		na, nb := fromBin.Neighbors(V(v)), fromText.Neighbors(V(v))
		if len(na) != len(nb) {
			t.Fatalf("vertex %d: degree %d vs %d", v, len(na), len(nb))
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("vertex %d: neighbor %d differs", v, i)
			}
		}
		pa, pb := fromBin.Loc(V(v)), fromText.Loc(V(v))
		if d := pa.Dist(pb); d > 1e-8 {
			t.Fatalf("vertex %d: locations differ by %v", v, d)
		}
	}
}

func BenchmarkBinaryRead(b *testing.B) {
	g := randomSpatial(13, 20000, 120000)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadBinary(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTextRead(b *testing.B) {
	g := randomSpatial(13, 20000, 120000)
	var edges, locs bytes.Buffer
	if err := WriteEdges(&edges, g); err != nil {
		b.Fatal(err)
	}
	if err := WriteLocations(&locs, g); err != nil {
		b.Fatal(err)
	}
	e, l := edges.Bytes(), locs.Bytes()
	b.SetBytes(int64(len(e) + len(l)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Read(bytes.NewReader(e), bytes.NewReader(l), g.NumVertices()); err != nil {
			b.Fatal(err)
		}
	}
}
