package graph

import (
	"bytes"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"sacsearch/internal/geom"
)

// buildPath returns 0-1-2-...-(n-1).
func buildPath(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(V(i), V(i+1))
	}
	for i := 0; i < n; i++ {
		b.SetLoc(V(i), geom.Point{X: float64(i), Y: 0})
	}
	return b.Build()
}

func sortedCopy(vs []V) []V {
	out := append([]V(nil), vs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	b.AddEdge(0, 2)
	g := b.Build()
	if g.NumVertices() != 4 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	if g.NumEdges() != 5 {
		t.Fatalf("m = %d", g.NumEdges())
	}
	if g.Degree(0) != 3 || g.Degree(3) != 2 {
		t.Fatalf("degrees = %d, %d", g.Degree(0), g.Degree(3))
	}
	if got := g.AvgDegree(); got != 2.5 {
		t.Fatalf("avg degree = %v", got)
	}
}

func TestBuilderDedupAndSelfLoops(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate, reversed
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(2, 2) // self loop: dropped
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("m = %d, want 1", g.NumEdges())
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 || g.Degree(2) != 0 {
		t.Fatalf("degrees = %d %d %d", g.Degree(0), g.Degree(1), g.Degree(2))
	}
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range edge")
		}
	}()
	NewBuilder(2).AddEdge(0, 5)
}

func TestNeighborsSorted(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(0, 4)
	b.AddEdge(0, 2)
	b.AddEdge(0, 3)
	b.AddEdge(0, 1)
	g := b.Build()
	nb := g.Neighbors(0)
	if !sort.SliceIsSorted(nb, func(i, j int) bool { return nb[i] < nb[j] }) {
		t.Fatalf("neighbors not sorted: %v", nb)
	}
}

func TestHasEdge(t *testing.T) {
	g := buildPath(5)
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 1) {
		t.Fatal("missing path edge")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("phantom edge 0-2")
	}
	if g.HasEdge(0, 4) {
		t.Fatal("phantom edge 0-4")
	}
}

func TestLocations(t *testing.T) {
	g := buildPath(3)
	if g.Loc(2) != (geom.Point{X: 2, Y: 0}) {
		t.Fatalf("Loc(2) = %v", g.Loc(2))
	}
	if g.Dist(0, 2) != 2 {
		t.Fatalf("Dist = %v", g.Dist(0, 2))
	}
	g.SetLoc(2, geom.Point{X: 0, Y: 5})
	if g.Dist(0, 2) != 5 {
		t.Fatalf("Dist after SetLoc = %v", g.Dist(0, 2))
	}
}

func TestNearestNeighbor(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.SetLoc(0, geom.Point{X: 0, Y: 0})
	b.SetLoc(1, geom.Point{X: 5, Y: 0})
	b.SetLoc(2, geom.Point{X: 1, Y: 0})
	b.SetLoc(3, geom.Point{X: 0.1, Y: 0}) // closest point but not adjacent
	g := b.Build()
	if got := g.NearestNeighbor(0); got != 2 {
		t.Fatalf("NearestNeighbor = %d, want 2", got)
	}
	// Isolated vertex has no nearest neighbor.
	if got := g.NearestNeighbor(3); got != -1 {
		t.Fatalf("NearestNeighbor(isolated) = %d, want -1", got)
	}
}

func TestMCCOf(t *testing.T) {
	g := buildPath(3) // points (0,0), (1,0), (2,0)
	c := g.MCCOf([]V{0, 1, 2})
	if c.R < 0.999 || c.R > 1.001 {
		t.Fatalf("MCC radius = %v, want 1", c.R)
	}
}

func TestLabels(t *testing.T) {
	g := buildPath(2)
	if g.Label(0) != "v0" {
		t.Fatalf("default label = %q", g.Label(0))
	}
	if err := g.SetLabels([]string{"alice", "bob"}); err != nil {
		t.Fatal(err)
	}
	if g.Label(1) != "bob" {
		t.Fatalf("label = %q", g.Label(1))
	}
	if err := g.SetLabels([]string{"tooshort"}); err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

func TestClone(t *testing.T) {
	g := buildPath(3)
	c := g.Clone()
	c.SetLoc(0, geom.Point{X: 9, Y: 9})
	if g.Loc(0) == (geom.Point{X: 9, Y: 9}) {
		t.Fatal("clone shares locations with original")
	}
	if c.NumEdges() != g.NumEdges() {
		t.Fatal("clone lost edges")
	}
}

func TestMarker(t *testing.T) {
	m := NewMarker(10)
	m.Mark(3)
	m.Mark(7)
	if !m.Has(3) || !m.Has(7) || m.Has(0) {
		t.Fatal("mark/has broken")
	}
	m.Unmark(3)
	if m.Has(3) {
		t.Fatal("unmark broken")
	}
	m.Reset()
	if m.Has(7) {
		t.Fatal("reset did not clear")
	}
	m.MarkAll([]V{1, 2, 3})
	if !m.Has(1) || !m.Has(2) || !m.Has(3) || m.Has(4) {
		t.Fatal("MarkAll broken")
	}
	if m.Len() != 10 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestMarkerEpochWrap(t *testing.T) {
	m := NewMarker(3)
	m.epoch = ^uint32(0) // next Reset wraps
	m.Mark(1)
	m.Reset()
	if m.Has(1) {
		t.Fatal("wrapped reset kept stale mark")
	}
	m.Mark(2)
	if !m.Has(2) {
		t.Fatal("mark after wrap broken")
	}
}

func TestBFSFrom(t *testing.T) {
	// Two triangles joined at vertex 2, plus an isolated vertex 6.
	b := NewBuilder(7)
	edges := [][2]V{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 2}, {4, 5}}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	g := b.Build()
	visited := NewMarker(g.NumVertices())

	all := BFSFrom(g, 0, func(V) bool { return true }, visited, nil)
	if len(all) != 6 {
		t.Fatalf("BFS reached %d vertices, want 6", len(all))
	}
	// Restrict to {0,1,2}: BFS should stay inside.
	in := map[V]bool{0: true, 1: true, 2: true}
	sub := BFSFrom(g, 0, func(v V) bool { return in[v] }, visited, nil)
	if got := sortedCopy(sub); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("restricted BFS = %v", got)
	}
	// Source excluded: empty.
	if got := BFSFrom(g, 0, func(v V) bool { return v != 0 }, visited, nil); len(got) != 0 {
		t.Fatalf("excluded-source BFS = %v", got)
	}
}

func TestRoundTripIO(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	n := 50
	b := NewBuilder(n)
	for i := 0; i < 200; i++ {
		b.AddEdge(V(rnd.Intn(n)), V(rnd.Intn(n)))
	}
	for v := 0; v < n; v++ {
		b.SetLoc(V(v), geom.Point{X: rnd.Float64(), Y: rnd.Float64()})
	}
	g := b.Build()

	var eBuf, lBuf bytes.Buffer
	if err := WriteEdges(&eBuf, g); err != nil {
		t.Fatal(err)
	}
	if err := WriteLocations(&lBuf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := Read(&eBuf, &lBuf, n)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() || g2.NumVertices() != g.NumVertices() {
		t.Fatalf("round trip size mismatch: %d/%d vs %d/%d",
			g2.NumVertices(), g2.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	for v := 0; v < n; v++ {
		a, bnb := g.Neighbors(V(v)), g2.Neighbors(V(v))
		if len(a) != len(bnb) {
			t.Fatalf("vertex %d adjacency mismatch", v)
		}
		for i := range a {
			if a[i] != bnb[i] {
				t.Fatalf("vertex %d adjacency mismatch at %d", v, i)
			}
		}
		if g.Loc(V(v)).Dist(g2.Loc(V(v))) > 1e-6 {
			t.Fatalf("vertex %d location drift", v)
		}
	}
}

func TestReadEdgesErrors(t *testing.T) {
	cases := []string{
		"0",           // too few fields
		"0 x",         // non-numeric
		"0 99",        // out of range
		"-1 0",        // negative
		"nonsense ok", // junk
	}
	for _, tc := range cases {
		if _, err := ReadEdges(strings.NewReader(tc), 3); err == nil {
			t.Errorf("ReadEdges(%q): expected error", tc)
		}
	}
	// Comments and blank lines are fine.
	if _, err := ReadEdges(strings.NewReader("# comment\n\n0 1\n"), 3); err != nil {
		t.Errorf("valid input rejected: %v", err)
	}
}

func TestReadLocationsErrors(t *testing.T) {
	cases := []string{
		"0 1.0",     // too few fields
		"0 x y",     // non-numeric
		"99 0.1 .2", // out of range
	}
	for _, tc := range cases {
		b := NewBuilder(3)
		if err := ReadLocationsInto(strings.NewReader(tc), b); err == nil {
			t.Errorf("ReadLocationsInto(%q): expected error", tc)
		}
	}
}

// Property: for every built graph, adjacency is symmetric, sorted, self-loop
// free and duplicate free.
func TestBuildInvariants(t *testing.T) {
	f := func(seed int64, nRaw uint8, mRaw uint16) bool {
		n := int(nRaw%50) + 2
		rnd := rand.New(rand.NewSource(seed))
		b := NewBuilder(n)
		for i := 0; i < int(mRaw%500); i++ {
			b.AddEdge(V(rnd.Intn(n)), V(rnd.Intn(n)))
		}
		g := b.Build()
		total := 0
		for v := 0; v < n; v++ {
			nb := g.Neighbors(V(v))
			total += len(nb)
			for i, u := range nb {
				if u == V(v) {
					return false // self loop
				}
				if i > 0 && nb[i-1] >= u {
					return false // unsorted or duplicate
				}
				if !g.HasEdge(u, V(v)) {
					return false // asymmetric
				}
			}
		}
		return total == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuild(b *testing.B) {
	rnd := rand.New(rand.NewSource(9))
	n := 10000
	type edge struct{ u, v V }
	edges := make([]edge, 50000)
	for i := range edges {
		edges[i] = edge{V(rnd.Intn(n)), V(rnd.Intn(n))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bb := NewBuilder(n)
		for _, e := range edges {
			bb.AddEdge(e.u, e.v)
		}
		_ = bb.Build()
	}
}

func BenchmarkBFS(b *testing.B) {
	g := buildPath(100000)
	visited := NewMarker(g.NumVertices())
	buf := make([]V, 0, g.NumVertices())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = BFSFrom(g, 0, func(V) bool { return true }, visited, buf[:0])
	}
}
