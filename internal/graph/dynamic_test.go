package graph

import (
	"bytes"
	"maps"
	"math/rand"
	"testing"

	"sacsearch/internal/geom"
)

// randomGraphEdges builds a random graph plus the edge set it contains.
func randomGraphEdges(n, m int, seed int64) (*Graph, map[[2]V]bool) {
	rnd := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	edges := map[[2]V]bool{}
	for v := 0; v < n; v++ {
		b.SetLoc(V(v), geom.Point{X: rnd.Float64(), Y: rnd.Float64()})
	}
	for len(edges) < m {
		u, v := V(rnd.Intn(n)), V(rnd.Intn(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if edges[[2]V{u, v}] {
			continue
		}
		edges[[2]V{u, v}] = true
		b.AddEdge(u, v)
	}
	return b.Build(), edges
}

// rebuild constructs a fresh CSR graph from an edge set — the differential
// reference for the overlay.
func rebuild(n int, edges map[[2]V]bool, locs []geom.Point) *Graph {
	b := NewBuilder(n)
	for e := range edges {
		b.AddEdge(e[0], e[1])
	}
	for v, p := range locs {
		b.SetLoc(V(v), p)
	}
	return b.Build()
}

// requireSameTopology fails unless g and want have identical adjacency.
func requireSameTopology(t *testing.T, g, want *Graph) {
	t.Helper()
	if g.NumVertices() != want.NumVertices() || g.NumEdges() != want.NumEdges() {
		t.Fatalf("n/m mismatch: got %d/%d want %d/%d",
			g.NumVertices(), g.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	for v := 0; v < g.NumVertices(); v++ {
		got, ref := g.Neighbors(V(v)), want.Neighbors(V(v))
		if len(got) != len(ref) {
			t.Fatalf("vertex %d: %v != %v", v, got, ref)
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("vertex %d: %v != %v", v, got, ref)
			}
		}
		if g.Degree(V(v)) != len(ref) {
			t.Fatalf("vertex %d: Degree %d != %d", v, g.Degree(V(v)), len(ref))
		}
	}
}

func TestAddRemoveEdgeBasics(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()

	if g.TopoEpoch() != 0 {
		t.Fatalf("fresh graph TopoEpoch = %d", g.TopoEpoch())
	}
	if !g.AddEdge(2, 3) || !g.HasEdge(2, 3) || !g.HasEdge(3, 2) {
		t.Fatal("AddEdge(2,3) did not take")
	}
	if g.NumEdges() != 3 || g.TopoEpoch() != 1 {
		t.Fatalf("after add: m=%d epoch=%d", g.NumEdges(), g.TopoEpoch())
	}
	// Duplicates and self-loops are no-ops that leave the epoch alone.
	if g.AddEdge(2, 3) || g.AddEdge(3, 2) || g.AddEdge(1, 1) {
		t.Fatal("duplicate/self-loop AddEdge returned true")
	}
	if g.TopoEpoch() != 1 {
		t.Fatalf("no-op add bumped epoch to %d", g.TopoEpoch())
	}
	if !g.RemoveEdge(0, 1) || g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("RemoveEdge(0,1) did not take")
	}
	if g.RemoveEdge(0, 1) || g.RemoveEdge(0, 3) {
		t.Fatal("removing a missing edge returned true")
	}
	if g.NumEdges() != 2 || g.TopoEpoch() != 2 {
		t.Fatalf("after remove: m=%d epoch=%d", g.NumEdges(), g.TopoEpoch())
	}
	// Adjacency rows stay sorted through churn.
	for v := 0; v < 4; v++ {
		nb := g.Neighbors(V(v))
		for i := 1; i < len(nb); i++ {
			if nb[i-1] >= nb[i] {
				t.Fatalf("vertex %d adjacency unsorted: %v", v, nb)
			}
		}
	}
}

func TestAddEdgeOutOfRangePanics(t *testing.T) {
	g := NewBuilder(3).Build()
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range AddEdge did not panic")
		}
	}()
	g.AddEdge(0, 5)
}

// TestEdgeChurnDifferential drives a randomized insert/remove sequence and
// checks, at several points along the way, that the overlaid graph matches a
// graph rebuilt from scratch over the same edge set.
func TestEdgeChurnDifferential(t *testing.T) {
	const n, m0, ops = 60, 150, 600
	rnd := rand.New(rand.NewSource(42))
	g, edges := randomGraphEdges(n, m0, 7)

	for step := 1; step <= ops; step++ {
		u, v := V(rnd.Intn(n)), V(rnd.Intn(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := [2]V{u, v}
		if edges[key] && rnd.Float64() < 0.5 {
			if !g.RemoveEdge(u, v) {
				t.Fatalf("step %d: RemoveEdge(%d,%d) = false for present edge", step, u, v)
			}
			delete(edges, key)
		} else if !edges[key] {
			if !g.AddEdge(u, v) {
				t.Fatalf("step %d: AddEdge(%d,%d) = false for absent edge", step, u, v)
			}
			edges[key] = true
		}
		if step%97 == 0 || step == ops {
			requireSameTopology(t, g, rebuild(n, edges, g.Locs()))
		}
	}
}

// TestPageBoundaryChurn drives random edge ops on the vertices either side
// of the first page boundary and on the last vertex, across a chain of
// clones with a frozen middle, for a graph with a partial last page, one
// smaller than a page, and graphs of one and no vertices. Each side must
// match a graph rebuilt from its own edge set, survive a binary round trip,
// and keep taking edge ops afterwards.
func TestPageBoundaryChurn(t *testing.T) {
	for _, n := range []int{2*pageSize + 3, pageSize / 3, 1, 0} {
		g, edges := randomGraphEdges(n, n/2, int64(n))
		sides := []*Graph{g, g.Clone(), nil}
		sides[2] = sides[1].Clone()
		sides[1].Freeze()
		sets := []map[[2]V]bool{edges, maps.Clone(edges), maps.Clone(edges)}
		var ends []V
		for _, v := range []int{pageSize - 1, pageSize, n - 1} {
			if v >= 0 && v < n {
				ends = append(ends, V(v))
			}
		}
		rnd := rand.New(rand.NewSource(int64(n) + 31))
		for step := 0; step < 600 && len(ends) > 0; step++ {
			i := 2 * rnd.Intn(2) // the writer or the far clone
			u, w := ends[rnd.Intn(len(ends))], V(rnd.Intn(n))
			if rnd.Intn(3) == 0 {
				w = ends[rnd.Intn(len(ends))]
			}
			if u == w {
				continue
			}
			key := [2]V{min(u, w), max(u, w)}
			if sets[i][key] {
				if !sides[i].RemoveEdge(u, w) {
					t.Fatalf("n=%d step %d: RemoveEdge(%d,%d) = false for a present edge", n, step, u, w)
				}
				delete(sets[i], key)
			} else {
				if !sides[i].AddEdge(u, w) {
					t.Fatalf("n=%d step %d: AddEdge(%d,%d) = false for an absent edge", n, step, u, w)
				}
				sets[i][key] = true
			}
		}
		for i, side := range sides {
			want := rebuild(n, sets[i], side.Locs())
			requireSameTopology(t, side, want)
			var buf bytes.Buffer
			if err := WriteBinary(&buf, side); err != nil {
				t.Fatal(err)
			}
			back, err := ReadBinary(&buf)
			if err != nil {
				t.Fatalf("n=%d side %d: %v", n, i, err)
			}
			requireSameTopology(t, back, want)
			if i == 1 {
				continue
			}
			// Churn keeps working after the checks.
			for e := range sets[i] {
				if !side.RemoveEdge(e[1], e[0]) || side.HasEdge(e[0], e[1]) {
					t.Fatalf("n=%d side %d: RemoveEdge(%d,%d) did not take", n, i, e[1], e[0])
				}
				break
			}
		}
	}
}

// TestCloneIsolatesTopology verifies clones diverge under edge churn in
// either direction.
func TestCloneIsolatesTopology(t *testing.T) {
	g, _ := randomGraphEdges(20, 30, 5)
	g.AddEdge(0, 19) // ensure a copied page exists before cloning
	c := g.Clone()
	if !c.HasEdge(0, 19) {
		t.Fatal("clone lost an edge added before the clone")
	}
	epoch := c.TopoEpoch()
	g.RemoveEdge(0, 19)
	if !c.HasEdge(0, 19) {
		t.Fatal("mutating the original leaked into the clone")
	}
	if c.TopoEpoch() != epoch || g.TopoEpoch() == epoch {
		t.Fatalf("epochs not independent: g=%d c=%d base=%d", g.TopoEpoch(), c.TopoEpoch(), epoch)
	}
	c.AddEdge(1, 19)
	if g.HasEdge(1, 19) {
		t.Fatal("mutating the clone leaked into the original")
	}
}

// TestCloneSharesEdgeHistory pins what publication cost depends on: with
// hundreds of edge ops behind it a Clone allocates a fixed handful of objects
// (it shares the pages), and a chain of clones still diverges correctly
// whichever side mutates which row afterwards — checked against graphs
// rebuilt from each side's own edge set.
func TestCloneSharesEdgeHistory(t *testing.T) {
	const n = 4000
	g, edges := randomGraphEdges(n, 3*n, 17)
	for v := V(0); v < 300; v++ {
		if w := v + n/2; g.AddEdge(v, w) {
			edges[[2]V{v, w}] = true
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { g.Clone() }); allocs > 3 {
		t.Fatalf("Clone after 300 edge ops allocates %v objects, want the struct, the location copy and the table",
			allocs)
	}

	sides := []*Graph{g, g.Clone(), nil}
	sides[2] = sides[1].Clone()
	sides[1].Freeze() // a published snapshot in the middle of the chain
	sets := []map[[2]V]bool{edges, nil, maps.Clone(edges)}
	frozenWant := rebuild(n, edges, g.Locs())
	rnd := rand.New(rand.NewSource(23))
	for step := 0; step < 400; step++ {
		i := 2 * rnd.Intn(2) // the writer or the far clone
		u, w := V(rnd.Intn(700)), V(n/2+rnd.Intn(700))
		if sides[i].HasEdge(u, w) {
			sides[i].RemoveEdge(u, w)
			delete(sets[i], [2]V{u, w})
		} else {
			sides[i].AddEdge(u, w)
			sets[i][[2]V{u, w}] = true
		}
	}
	requireSameTopology(t, sides[1], frozenWant)
	for _, i := range []int{0, 2} {
		requireSameTopology(t, sides[i], rebuild(n, sets[i], sides[i].Locs()))
	}
}

// TestWriteBinaryWithDeltas round-trips a graph that took an edge op after
// its build — without mutating it (WriteBinary is a pure reader).
func TestWriteBinaryWithDeltas(t *testing.T) {
	g, edges := randomGraphEdges(25, 40, 11)
	g.AddEdge(0, 24)
	edges[[2]V{0, 24}] = true
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	requireSameTopology(t, g, rebuild(25, edges, g.Locs()))
	if int64(buf.Len()) != BinarySize(g) {
		t.Fatalf("wrote %d bytes, BinarySize says %d", buf.Len(), BinarySize(g))
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	requireSameTopology(t, back, rebuild(25, edges, g.Locs()))
}

// TestNumVerticesSafeDuringCompaction pins the concurrency contract the
// server relies on: NumVertices (range checks, clone scratch sizing) may be
// read without the caller's lock even during edge churn, which swaps pages
// in the table. Run with -race.
func TestNumVerticesSafeDuringCompaction(t *testing.T) {
	const n = 400 // edge ops across both pages
	g := NewBuilder(n).Build()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 4000; i++ {
			if g.NumVertices() != n {
				panic("NumVertices changed")
			}
		}
	}()
	for v := 1; v < n; v++ {
		g.AddEdge(0, V(v))
		g.AddEdge(V(v), V((v+7)%n))
	}
	<-done
}

// TestSamePageEdgeOpCopiesOnePage: an edge op whose endpoints share a page
// stores one copy of it, a page and its row array, instead of copying it
// once per endpoint and dropping the first copy.
func TestSamePageEdgeOpCopiesOnePage(t *testing.T) {
	b := NewBuilder(4 * pageSize)
	for v := 1; v < 4*pageSize; v++ {
		b.AddEdge(V(v-1), V(v))
	}
	g := b.Build()
	for _, tc := range []struct {
		u, v   V
		allocs float64
	}{{3, pageSize - 1, 2}, {pageSize + 7, pageSize + 2, 2}, {3, 2*pageSize + 5, 4}} {
		per := testing.AllocsPerRun(50, func() {
			if !g.AddEdge(tc.u, tc.v) || !g.RemoveEdge(tc.u, tc.v) {
				t.Fatalf("edge op on (%d,%d) did not take", tc.u, tc.v)
			}
		}) / 2
		if per > tc.allocs {
			t.Fatalf("edge op on (%d,%d) allocated %v times, want at most %v", tc.u, tc.v, per, tc.allocs)
		}
	}
}
