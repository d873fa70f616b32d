package community

import (
	"math/rand"
	"sort"
	"testing"

	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
)

// twoCliques builds two k-cliques bridged by a single edge, clique A near
// the origin and clique B in the far corner.
func twoCliques(size int) *graph.Graph {
	b := graph.NewBuilder(2 * size)
	for i := 0; i < size; i++ {
		for j := i + 1; j < size; j++ {
			b.AddEdge(graph.V(i), graph.V(j))
			b.AddEdge(graph.V(i+size), graph.V(j+size))
		}
	}
	b.AddEdge(graph.V(size-1), graph.V(size)) // bridge
	for i := 0; i < size; i++ {
		b.SetLoc(graph.V(i), geom.Point{X: 0.1 + 0.01*float64(i), Y: 0.1})
		b.SetLoc(graph.V(i+size), geom.Point{X: 0.9 - 0.01*float64(i), Y: 0.9})
	}
	return b.Build()
}

func sorted(vs []graph.V) []graph.V {
	out := append([]graph.V(nil), vs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestGlobal(t *testing.T) {
	g := twoCliques(5)
	s := NewSearcher(g)
	// k=4: each clique is a 4-core; the bridge endpoints still have core 4.
	got := s.Global(0, 4)
	if len(got) != 10 {
		// The bridge links the cliques; whether the 4-core is connected
		// across it depends on bridge endpoints' degrees (5 each: 4 in
		// clique + bridge). Both cliques are 4-cores and the bridge
		// endpoints have degree 5, but the bridge endpoints' core number is
		// still 4 and the bridge edge connects them.
		t.Fatalf("Global(0,4) size = %d, want 10 (both cliques via bridge)", len(got))
	}
	// k=5: no 5-core in 5-cliques (max degree inside is 4).
	if got := s.Global(0, 5); got != nil {
		t.Fatalf("Global(0,5) = %v, want nil", got)
	}
}

func TestLocalSmallerThanGlobal(t *testing.T) {
	g := twoCliques(6)
	s := NewSearcher(g)
	local := s.Local(0, 5)
	if local == nil {
		t.Fatal("Local found nothing")
	}
	global := s.Global(0, 5)
	if len(local) > len(global) {
		t.Fatalf("Local (%d) bigger than Global (%d)", len(local), len(global))
	}
	// Local should stop at the first clique: 6 vertices.
	if len(local) != 6 {
		t.Fatalf("Local size = %d, want 6 (one clique)", len(local))
	}
	// Validate min degree.
	in := map[graph.V]bool{}
	for _, v := range local {
		in[v] = true
	}
	for _, v := range local {
		d := 0
		for _, u := range g.Neighbors(v) {
			if in[u] {
				d++
			}
		}
		if d < 5 {
			t.Fatalf("Local vertex %d degree %d < 5", v, d)
		}
	}
}

func TestLocalInfeasible(t *testing.T) {
	g := twoCliques(4)
	s := NewSearcher(g)
	if got := s.Local(0, 4); got != nil {
		t.Fatalf("Local(0,4) on 4-cliques = %v, want nil (max k-core is 3)", got)
	}
	// Query with no chance at all.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	g2 := b.Build()
	s2 := NewSearcher(g2)
	if got := s2.Local(2, 1); got != nil {
		t.Fatalf("Local on isolated vertex = %v", got)
	}
}

func TestLocalContainsQueryAndConnected(t *testing.T) {
	rnd := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		n := 30 + rnd.Intn(40)
		b := graph.NewBuilder(n)
		for i := 0; i < 6*n; i++ {
			b.AddEdge(graph.V(rnd.Intn(n)), graph.V(rnd.Intn(n)))
		}
		for v := 0; v < n; v++ {
			b.SetLoc(graph.V(v), geom.Point{X: rnd.Float64(), Y: rnd.Float64()})
		}
		g := b.Build()
		s := NewSearcher(g)
		q := graph.V(rnd.Intn(n))
		k := 2 + rnd.Intn(3)
		got := s.Local(q, k)
		want := s.Global(q, k)
		if (got == nil) != (want == nil) {
			t.Fatalf("trial %d: Local nil=%v but Global nil=%v", trial, got == nil, want == nil)
		}
		if got == nil {
			continue
		}
		if len(got) > len(want) {
			t.Fatalf("trial %d: Local %d > Global %d", trial, len(got), len(want))
		}
		in := map[graph.V]bool{}
		hasQ := false
		for _, v := range got {
			in[v] = true
			hasQ = hasQ || v == q
		}
		if !hasQ {
			t.Fatalf("trial %d: Local misses q", trial)
		}
		for _, v := range got {
			d := 0
			for _, u := range g.Neighbors(v) {
				if in[u] {
					d++
				}
			}
			if d < k {
				t.Fatalf("trial %d: Local degree %d < %d", trial, d, k)
			}
		}
		visited := graph.NewMarker(n)
		reach := graph.BFSFrom(g, q, func(v graph.V) bool { return in[v] }, visited, nil)
		if len(reach) != len(got) {
			t.Fatalf("trial %d: Local not connected", trial)
		}
	}
}

func TestAvgInternalDegree(t *testing.T) {
	g := twoCliques(4)
	if got := AvgInternalDegree(g, []graph.V{0, 1, 2, 3}); got != 3 {
		t.Fatalf("clique avg degree = %v, want 3", got)
	}
	if got := AvgInternalDegree(g, []graph.V{0, 4 /* not adjacent */}); got != 0 {
		t.Fatalf("disconnected pair avg degree = %v, want 0", got)
	}
	if got := AvgInternalDegree(g, nil); got != 0 {
		t.Fatalf("empty = %v", got)
	}
}

func TestGeoModuTwoCliques(t *testing.T) {
	g := twoCliques(6)
	for _, mu := range []float64{1, 2} {
		p := RunGeoModu(g, mu)
		if p.NumCommunities() < 2 {
			t.Fatalf("µ=%v: %d communities, want ≥ 2", mu, p.NumCommunities())
		}
		// The two cliques must not share a block.
		if p.Block(0) == p.Block(6) {
			t.Fatalf("µ=%v: cliques merged", mu)
		}
		// All of clique A shares vertex 0's block.
		cm := p.CommunityOf(0)
		if len(cm) != 6 {
			t.Fatalf("µ=%v: community of 0 = %v", mu, cm)
		}
		for _, v := range sorted(cm) {
			if v >= 6 {
				t.Fatalf("µ=%v: far-clique vertex %d in near community", mu, v)
			}
		}
	}
}

func TestGeoModuDeterministic(t *testing.T) {
	g := twoCliques(5)
	a := RunGeoModu(g, 1)
	b := RunGeoModu(g, 1)
	for v := 0; v < g.NumVertices(); v++ {
		if a.Block(graph.V(v)) != b.Block(graph.V(v)) {
			t.Fatal("GeoModu not deterministic")
		}
	}
}

func TestGeoModuModularityImproves(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	n := 60
	b := graph.NewBuilder(n)
	for i := 0; i < 4*n; i++ {
		b.AddEdge(graph.V(rnd.Intn(n)), graph.V(rnd.Intn(n)))
	}
	for v := 0; v < n; v++ {
		b.SetLoc(graph.V(v), geom.Point{X: rnd.Float64(), Y: rnd.Float64()})
	}
	g := b.Build()
	p := RunGeoModu(g, 1)
	// Modularity of the found partition beats the singleton partition.
	single := make([]int32, n)
	for v := range single {
		single[v] = int32(v)
	}
	qFound := Modularity(g, p.comm, 1)
	qSingle := Modularity(g, single, 1)
	if qFound < qSingle {
		t.Fatalf("louvain modularity %v < singleton %v", qFound, qSingle)
	}
	if qFound <= 0 {
		t.Fatalf("modularity %v not positive on clustered input", qFound)
	}
}

func TestGeoModuColocatedVertices(t *testing.T) {
	// Same location ⇒ weight capped via minGeoDist; must not panic or NaN.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	for v := 0; v < 4; v++ {
		b.SetLoc(graph.V(v), geom.Point{X: 0.5, Y: 0.5})
	}
	g := b.Build()
	p := RunGeoModu(g, 2)
	if p.NumCommunities() < 1 {
		t.Fatal("no communities")
	}
	if q := Modularity(g, p.comm, 2); q != q { // NaN check
		t.Fatal("modularity is NaN")
	}
}

func TestGeoModuEmptyAndEdgeless(t *testing.T) {
	g := graph.NewBuilder(3).Build()
	p := RunGeoModu(g, 1)
	if p.NumCommunities() != 3 {
		t.Fatalf("edgeless graph: %d communities, want 3 singletons", p.NumCommunities())
	}
}

func TestGeoModuSpatialDecaySplitsFarFriends(t *testing.T) {
	// A clique whose members are spatially split into two far groups, with
	// dense internal edges: with µ=2 the far edges get tiny weight, so
	// GeoModu prefers spatially tight blocks. Construct two tight pairs far
	// apart, all six edges present (K4).
	b := graph.NewBuilder(4)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.AddEdge(graph.V(i), graph.V(j))
		}
	}
	b.SetLoc(0, geom.Point{X: 0.01, Y: 0.01})
	b.SetLoc(1, geom.Point{X: 0.02, Y: 0.01})
	b.SetLoc(2, geom.Point{X: 0.99, Y: 0.99})
	b.SetLoc(3, geom.Point{X: 0.98, Y: 0.99})
	g := b.Build()
	p := RunGeoModu(g, 2)
	if p.Block(0) != p.Block(1) || p.Block(2) != p.Block(3) {
		t.Fatalf("tight pairs split: blocks %v %v %v %v", p.Block(0), p.Block(1), p.Block(2), p.Block(3))
	}
	if p.Block(0) == p.Block(2) {
		t.Fatal("far pairs merged despite µ=2 decay")
	}
}

func BenchmarkGeoModu(b *testing.B) {
	rnd := rand.New(rand.NewSource(2))
	n := 2000
	bb := graph.NewBuilder(n)
	for i := 0; i < 8*n; i++ {
		bb.AddEdge(graph.V(rnd.Intn(n)), graph.V(rnd.Intn(n)))
	}
	for v := 0; v < n; v++ {
		bb.SetLoc(graph.V(v), geom.Point{X: rnd.Float64(), Y: rnd.Float64()})
	}
	g := bb.Build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = RunGeoModu(g, 1)
	}
}

func BenchmarkLocal(b *testing.B) {
	g := twoCliques(30)
	s := NewSearcher(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Local(0, 20)
	}
}
