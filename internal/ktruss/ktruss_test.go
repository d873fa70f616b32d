package ktruss

import (
	"math/rand"
	"sort"
	"testing"

	"sacsearch/internal/graph"
)

func clique(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(graph.V(i), graph.V(j))
		}
	}
	return b.Build()
}

func sorted(vs []graph.V) []graph.V {
	out := append([]graph.V(nil), vs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestEdgeKeySymmetric(t *testing.T) {
	if edgeKey(1, 2) != edgeKey(2, 1) {
		t.Fatal("edgeKey not symmetric")
	}
	if edgeKey(1, 2) == edgeKey(1, 3) {
		t.Fatal("edgeKey collision")
	}
}

func TestDecomposeTriangle(t *testing.T) {
	g := clique(3)
	truss := Decompose(g)
	for key, tv := range truss {
		if tv != 3 {
			t.Fatalf("triangle edge %x truss = %d, want 3", key, tv)
		}
	}
	if len(truss) != 3 {
		t.Fatalf("edge count = %d", len(truss))
	}
}

func TestDecomposeClique(t *testing.T) {
	// Every edge of K_n has truss number n.
	for n := 3; n <= 6; n++ {
		truss := Decompose(clique(n))
		for key, tv := range truss {
			if tv != int32(n) {
				t.Fatalf("K_%d edge %x truss = %d, want %d", n, key, tv, n)
			}
		}
	}
}

func TestDecomposeMixed(t *testing.T) {
	// K4 (0..3) plus a pendant edge 3-4 plus a triangle 4-5-6.
	b := graph.NewBuilder(7)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.AddEdge(graph.V(i), graph.V(j))
		}
	}
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	b.AddEdge(5, 6)
	b.AddEdge(6, 4)
	g := b.Build()
	truss := Decompose(g)
	if got := truss[edgeKey(0, 1)]; got != 4 {
		t.Fatalf("K4 edge truss = %d, want 4", got)
	}
	if got := truss[edgeKey(3, 4)]; got != 2 {
		t.Fatalf("pendant edge truss = %d, want 2", got)
	}
	if got := truss[edgeKey(4, 5)]; got != 3 {
		t.Fatalf("triangle edge truss = %d, want 3", got)
	}
	for key, tr := range truss {
		if tr < 2 || tr > 4 {
			t.Fatalf("edge %x has truss %d, outside the 2, 3 and 4 this graph holds", key, tr)
		}
	}
}

// Truss validity: for every k, the subgraph of edges with truss >= k has
// every edge in >= k-2 triangles of that subgraph; and truss numbers are
// maximal (edge support in the (k+1)-candidate subgraph is < k-1).
func TestDecomposeInvariant(t *testing.T) {
	rnd := rand.New(rand.NewSource(321))
	for trial := 0; trial < 25; trial++ {
		n := 8 + rnd.Intn(20)
		b := graph.NewBuilder(n)
		for i := 0; i < 5*n; i++ {
			b.AddEdge(graph.V(rnd.Intn(n)), graph.V(rnd.Intn(n)))
		}
		g := b.Build()
		truss := Decompose(g)
		maxT := int32(2)
		for _, tv := range truss {
			if tv > maxT {
				maxT = tv
			}
			if tv < 2 {
				t.Fatalf("truss number %d < 2", tv)
			}
		}
		for k := int32(3); k <= maxT; k++ {
			// Edge set with truss >= k.
			in := func(u, v graph.V) bool { return truss[edgeKey(u, v)] >= k }
			for u := 0; u < n; u++ {
				for _, v := range g.Neighbors(graph.V(u)) {
					if graph.V(u) >= v || !in(graph.V(u), v) {
						continue
					}
					// Count triangles within the >=k subgraph.
					c := 0
					forEachCommon(g, graph.V(u), v, func(w graph.V) {
						if in(graph.V(u), w) && in(v, w) {
							c++
						}
					})
					if c < int(k)-2 {
						t.Fatalf("trial %d: edge (%d,%d) truss %d has only %d triangles at k=%d",
							trial, u, v, truss[edgeKey(graph.V(u), v)], c, k)
					}
				}
			}
		}
	}
}

func TestCommunityOf(t *testing.T) {
	// Two K4s sharing nothing, bridged by one edge.
	b := graph.NewBuilder(8)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.AddEdge(graph.V(i), graph.V(j))
			b.AddEdge(graph.V(i+4), graph.V(j+4))
		}
	}
	b.AddEdge(3, 4) // bridge, in no triangle
	g := b.Build()
	truss := Decompose(g)

	got := sorted(CommunityOf(g, truss, 0, 4))
	if len(got) != 4 || got[0] != 0 || got[3] != 3 {
		t.Fatalf("4-truss community of 0 = %v", got)
	}
	// k=3: still only the K4 (bridge has truss 2).
	got = sorted(CommunityOf(g, truss, 0, 3))
	if len(got) != 4 {
		t.Fatalf("3-truss community of 0 = %v", got)
	}
	// k=2: bridge included, whole graph.
	got = CommunityOf(g, truss, 0, 2)
	if len(got) != 8 {
		t.Fatalf("2-truss community size = %d, want 8", len(got))
	}
	// No 5-truss anywhere.
	if got := CommunityOf(g, truss, 0, 5); got != nil {
		t.Fatalf("5-truss community = %v, want nil", got)
	}
}

func TestCheckerMatchesDecompose(t *testing.T) {
	rnd := rand.New(rand.NewSource(55))
	for trial := 0; trial < 20; trial++ {
		n := 10 + rnd.Intn(25)
		b := graph.NewBuilder(n)
		for i := 0; i < 6*n; i++ {
			b.AddEdge(graph.V(rnd.Intn(n)), graph.V(rnd.Intn(n)))
		}
		g := b.Build()
		truss := Decompose(g)
		c := NewChecker(g)
		all := make([]graph.V, n)
		for i := range all {
			all[i] = graph.V(i)
		}
		for k := 3; k <= 5; k++ {
			q := graph.V(rnd.Intn(n))
			want := CommunityOf(g, truss, q, k)
			got := c.KTrussWithin(all, q, k)
			if (got == nil) != (want == nil) {
				t.Fatalf("trial %d k=%d q=%d: feasibility mismatch", trial, k, q)
			}
			if got == nil {
				continue
			}
			gs, ws := sorted(got), sorted(want)
			if len(gs) != len(ws) {
				t.Fatalf("trial %d k=%d q=%d: %v vs %v", trial, k, q, gs, ws)
			}
			for i := range gs {
				if gs[i] != ws[i] {
					t.Fatalf("trial %d k=%d q=%d: %v vs %v", trial, k, q, gs, ws)
				}
			}
		}
	}
}

func TestCheckerRestricted(t *testing.T) {
	// K4 0..3; restricting S to {0,1,2} leaves a triangle: a 3-truss but not
	// a 4-truss.
	g := clique(4)
	c := NewChecker(g)
	S := []graph.V{0, 1, 2}
	if got := c.KTrussWithin(S, 0, 3); len(got) != 3 {
		t.Fatalf("restricted 3-truss = %v", got)
	}
	if got := c.KTrussWithin(S, 0, 4); got != nil {
		t.Fatalf("restricted 4-truss = %v, want nil", got)
	}
	// q outside S.
	if got := c.KTrussWithin(S, 3, 3); got != nil {
		t.Fatalf("q outside S = %v, want nil", got)
	}
}

func TestCheckerReuse(t *testing.T) {
	g := clique(5)
	c := NewChecker(g)
	a := append([]graph.V(nil), c.KTrussWithin([]graph.V{0, 1, 2, 3, 4}, 0, 5)...)
	_ = c.KTrussWithin([]graph.V{0, 1, 2}, 0, 3)
	b := append([]graph.V(nil), c.KTrussWithin([]graph.V{0, 1, 2, 3, 4}, 0, 5)...)
	if len(a) != len(b) {
		t.Fatalf("reuse corrupted: %v vs %v", a, b)
	}
}

func BenchmarkCheckerKTrussWithin(b *testing.B) {
	rnd := rand.New(rand.NewSource(4))
	n := 500
	bb := graph.NewBuilder(n)
	for i := 0; i < 5000; i++ {
		bb.AddEdge(graph.V(rnd.Intn(n)), graph.V(rnd.Intn(n)))
	}
	g := bb.Build()
	c := NewChecker(g)
	S := make([]graph.V, n)
	for i := range S {
		S[i] = graph.V(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.KTrussWithin(S, 0, 4)
	}
}
