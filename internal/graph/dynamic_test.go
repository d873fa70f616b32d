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

// TestCompactPreservesTopology pins that compaction is representation-only:
// same adjacency, same epoch, empty delta layer.
func TestCompactPreservesTopology(t *testing.T) {
	g, edges := randomGraphEdges(40, 80, 3)
	rnd := rand.New(rand.NewSource(9))
	for i := 0; i < 50; i++ {
		u, v := V(rnd.Intn(40)), V(rnd.Intn(40))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if g.AddEdge(u, v) {
			edges[[2]V{u, v}] = true
		}
	}
	if g.PatchedVertices() == 0 {
		t.Fatal("churn left no patched vertices")
	}
	epoch := g.TopoEpoch()
	g.Compact()
	if g.PatchedVertices() != 0 {
		t.Fatalf("Compact left %d patched vertices", g.PatchedVertices())
	}
	if g.TopoEpoch() != epoch {
		t.Fatalf("Compact bumped epoch %d -> %d", epoch, g.TopoEpoch())
	}
	requireSameTopology(t, g, rebuild(40, edges, g.Locs()))
	// Further churn after compaction still works.
	if !g.RemoveEdge(g.Neighbors(0)[0], 0) {
		t.Fatal("RemoveEdge after Compact failed")
	}
}

// TestAutoCompaction checks that heavy churn folds the delta layer back into
// the CSR on its own.
func TestAutoCompaction(t *testing.T) {
	const n = 100 // > compactMinPatched vertices will be patched
	b := NewBuilder(n)
	g := b.Build()
	for v := 1; v < n; v++ {
		g.AddEdge(0, V(v))
	}
	if g.PatchedVertices() > compactMinPatched {
		t.Fatalf("auto-compaction never fired: %d patched", g.PatchedVertices())
	}
	if g.NumEdges() != n-1 {
		t.Fatalf("m = %d, want %d", g.NumEdges(), n-1)
	}
}

// TestCloneIsolatesTopology verifies clones diverge under edge churn in
// either direction.
func TestCloneIsolatesTopology(t *testing.T) {
	g, _ := randomGraphEdges(20, 30, 5)
	g.AddEdge(0, 19) // ensure a patched row exists before cloning
	c := g.Clone()
	if !c.HasEdge(0, 19) {
		t.Fatal("clone lost patched edge")
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
// hundreds of patched rows a Clone allocates a fixed handful of objects (it
// shares the rows and the map), and a chain of clones still diverges
// correctly whichever side mutates which row afterwards — checked against
// graphs rebuilt from each side's own edge set.
func TestCloneSharesEdgeHistory(t *testing.T) {
	const n = 4000 // below the compaction threshold at 600 patched rows
	g, edges := randomGraphEdges(n, 3*n, 17)
	for v := V(0); g.PatchedVertices() < 600; v++ {
		if w := v + n/2; g.AddEdge(v, w) {
			edges[[2]V{v, w}] = true
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { g.Clone() }); allocs > 3 {
		t.Fatalf("Clone with %d patched rows allocates %v objects, want the struct and the location copy",
			g.PatchedVertices(), allocs)
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

// TestWriteBinaryWithDeltas round-trips a graph whose topology lives partly
// in the delta layer — without mutating it (WriteBinary is a pure reader).
func TestWriteBinaryWithDeltas(t *testing.T) {
	g, edges := randomGraphEdges(25, 40, 11)
	g.AddEdge(0, 24)
	edges[[2]V{0, 24}] = true
	patched := g.PatchedVertices()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	if g.PatchedVertices() != patched {
		t.Fatalf("WriteBinary mutated the graph: %d patched vertices, had %d", g.PatchedVertices(), patched)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	requireSameTopology(t, back, rebuild(25, edges, g.Locs()))
}

// TestNumVerticesSafeDuringCompaction pins the concurrency contract the
// server relies on: NumVertices (range checks, clone scratch sizing) may be
// read without the caller's lock even while churn triggers Compact, which
// replaces the offsets slice. Run with -race.
func TestNumVerticesSafeDuringCompaction(t *testing.T) {
	const n = 400 // big enough that auto-compaction fires repeatedly
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
