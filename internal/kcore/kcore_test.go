package kcore

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"sacsearch/internal/graph"
)

// paperGraph builds the 10-vertex example of Figure 3: vertices
// Q,A,B,C,D,E,F,G,H,I = 0..9. Edges are chosen so that the 2-core has two
// components {Q,A,B,C,D,E} and {F,G,H}, the 3-core is {Q,A,B,C,D}-ish —
// we encode the published k-core structure (Example 1): 2-core components
// {Q,A,B,C,D,E} and {F,G,H}; I is in no 2-core.
func paperGraph() *graph.Graph {
	// 0=Q 1=A 2=B 3=C 4=D 5=E 6=F 7=G 8=H 9=I
	b := graph.NewBuilder(10)
	edges := [][2]graph.V{
		{0, 1}, {0, 2}, {1, 2}, // triangle Q,A,B
		{0, 3}, {0, 4}, {3, 4}, // triangle Q,C,D
		{3, 5}, {4, 5}, // E joins C,D
		{6, 7}, {6, 8}, {7, 8}, // triangle F,G,H (separate 2-ĉore)
		{5, 9}, // I hangs off E
	}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

func sorted(vs []graph.V) []graph.V {
	out := append([]graph.V(nil), vs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func eq(a, b []graph.V) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// bruteCore computes core numbers by repeated peeling — O(n·m) reference.
func bruteCore(g *graph.Graph) []int32 {
	n := g.NumVertices()
	core := make([]int32, n)
	alive := make([]bool, n)
	deg := make([]int32, n)
	for k := int32(1); ; k++ {
		for v := 0; v < n; v++ {
			alive[v] = true
			deg[v] = int32(g.Degree(graph.V(v)))
		}
		// Peel everything below k.
		changed := true
		for changed {
			changed = false
			for v := 0; v < n; v++ {
				if alive[v] && deg[v] < k {
					alive[v] = false
					changed = true
					for _, u := range g.Neighbors(graph.V(v)) {
						if alive[u] {
							deg[u]--
						}
					}
				}
			}
		}
		any := false
		for v := 0; v < n; v++ {
			if alive[v] {
				core[v] = k
				any = true
			}
		}
		if !any {
			return core
		}
	}
}

func TestDecomposeSmall(t *testing.T) {
	// Triangle + pendant: triangle vertices have core 2, pendant core 1.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(2, 3)
	g := b.Build()
	core := Decompose(g)
	want := []int32{2, 2, 2, 1}
	for v := range want {
		if core[v] != want[v] {
			t.Fatalf("core[%d] = %d, want %d (all: %v)", v, core[v], want[v], core)
		}
	}
}

func TestDecomposeEmptyAndIsolated(t *testing.T) {
	g := graph.NewBuilder(0).Build()
	if got := Decompose(g); len(got) != 0 {
		t.Fatalf("empty graph core = %v", got)
	}
	g = graph.NewBuilder(3).Build() // three isolated vertices
	core := Decompose(g)
	for v, c := range core {
		if c != 0 {
			t.Fatalf("isolated core[%d] = %d", v, c)
		}
	}
}

func TestDecomposeClique(t *testing.T) {
	n := 6
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(graph.V(i), graph.V(j))
		}
	}
	core := Decompose(b.Build())
	for v, c := range core {
		if c != int32(n-1) {
			t.Fatalf("clique core[%d] = %d, want %d", v, c, n-1)
		}
	}
}

func TestDecomposePaperExample(t *testing.T) {
	g := paperGraph()
	core := Decompose(g)
	// 2-core must be exactly {Q,A,B,C,D,E} ∪ {F,G,H}; I has core 1.
	want2 := map[graph.V]bool{0: true, 1: true, 2: true, 3: true, 4: true, 5: true, 6: true, 7: true, 8: true}
	for v := 0; v < g.NumVertices(); v++ {
		in2 := core[v] >= 2
		if in2 != want2[graph.V(v)] {
			t.Fatalf("vertex %d: core=%d, want in 2-core = %v", v, core[v], want2[graph.V(v)])
		}
	}
	if core[9] != 1 {
		t.Fatalf("core[I] = %d, want 1", core[9])
	}
}

func TestDecomposeMatchesBruteForce(t *testing.T) {
	rnd := rand.New(rand.NewSource(77))
	for trial := 0; trial < 50; trial++ {
		n := 5 + rnd.Intn(40)
		b := graph.NewBuilder(n)
		m := rnd.Intn(4 * n)
		for i := 0; i < m; i++ {
			b.AddEdge(graph.V(rnd.Intn(n)), graph.V(rnd.Intn(n)))
		}
		g := b.Build()
		got := Decompose(g)
		want := bruteCore(g)
		for v := 0; v < n; v++ {
			if got[v] != want[v] {
				t.Fatalf("trial %d vertex %d: got %d, want %d", trial, v, got[v], want[v])
			}
		}
	}
}

// Property: core numbers are valid — the subgraph induced by {v: core(v)>=k}
// has min degree >= k within itself for every k, and core(v) <= deg(v).
func TestDecomposeInvariants(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		n := int(nRaw%30) + 3
		rnd := rand.New(rand.NewSource(seed))
		b := graph.NewBuilder(n)
		for i := 0; i < int(mRaw); i++ {
			b.AddEdge(graph.V(rnd.Intn(n)), graph.V(rnd.Intn(n)))
		}
		g := b.Build()
		core := Decompose(g)
		maxK := slices.Max(core)
		for v := 0; v < n; v++ {
			if int(core[v]) > g.Degree(graph.V(v)) {
				return false
			}
		}
		for k := int32(1); k <= maxK; k++ {
			for v := 0; v < n; v++ {
				if core[v] < k {
					continue
				}
				d := 0
				for _, u := range g.Neighbors(graph.V(v)) {
					if core[u] >= k {
						d++
					}
				}
				if d < int(k) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCommunityOf(t *testing.T) {
	g := paperGraph()
	core := Decompose(g)
	// Q's 2-ĉore is {Q,A,B,C,D,E}; F,G,H are a separate 2-ĉore.
	got := sorted(CommunityOf(g, core, 0, 2))
	if !eq(got, []graph.V{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("CommunityOf(Q, 2) = %v", got)
	}
	got = sorted(CommunityOf(g, core, 6, 2))
	if !eq(got, []graph.V{6, 7, 8}) {
		t.Fatalf("CommunityOf(F, 2) = %v", got)
	}
	// I is in no 2-core.
	if got := CommunityOf(g, core, 9, 2); got != nil {
		t.Fatalf("CommunityOf(I, 2) = %v, want nil", got)
	}
	// k=0: the whole connected component of I, which excludes {F,G,H}.
	got = CommunityOf(g, core, 9, 0)
	if len(got) != 7 {
		t.Fatalf("CommunityOf(I, 0) size = %d, want 7", len(got))
	}
}

func TestPeelerBasic(t *testing.T) {
	g := paperGraph()
	p := NewPeeler(g)
	all := make([]graph.V, g.NumVertices())
	for i := range all {
		all[i] = graph.V(i)
	}
	// Full graph, k=2 from Q: same as CommunityOf.
	got := sorted(p.KCoreWithin(all, 0, 2))
	if !eq(got, []graph.V{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("KCoreWithin(all, Q, 2) = %v", got)
	}
	// Restricted to {Q,A,B}: the triangle is a 2-core.
	got = sorted(p.KCoreWithin([]graph.V{0, 1, 2}, 0, 2))
	if !eq(got, []graph.V{0, 1, 2}) {
		t.Fatalf("KCoreWithin(triangle, Q, 2) = %v", got)
	}
	// Restricted to {Q,A,C}: no triangle (A and C not adjacent): infeasible.
	if got := p.KCoreWithin([]graph.V{0, 1, 3}, 0, 2); got != nil {
		t.Fatalf("KCoreWithin(QAC, Q, 2) = %v, want nil", got)
	}
	// q not in S.
	if got := p.KCoreWithin([]graph.V{1, 2}, 0, 2); got != nil {
		t.Fatalf("q outside S should be infeasible, got %v", got)
	}
}

func TestPeelerDisconnectedCandidates(t *testing.T) {
	g := paperGraph()
	p := NewPeeler(g)
	// S contains both 2-ĉores; the result must be only Q's component.
	S := []graph.V{0, 1, 2, 3, 4, 5, 6, 7, 8}
	got := sorted(p.KCoreWithin(S, 0, 2))
	if !eq(got, []graph.V{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("component isolation failed: %v", got)
	}
	got = sorted(p.KCoreWithin(S, 7, 2))
	if !eq(got, []graph.V{6, 7, 8}) {
		t.Fatalf("component isolation failed for G-side: %v", got)
	}
}

func TestPeelerCascade(t *testing.T) {
	// Path 0-1-2-3-4 with k=1: feasible (whole path); with k=2 infeasible
	// because peeling the ends cascades through everything.
	b := graph.NewBuilder(5)
	for i := 0; i < 4; i++ {
		b.AddEdge(graph.V(i), graph.V(i+1))
	}
	g := b.Build()
	p := NewPeeler(g)
	S := []graph.V{0, 1, 2, 3, 4}
	if got := p.KCoreWithin(S, 2, 1); len(got) != 5 {
		t.Fatalf("k=1 on path = %v", got)
	}
	if got := p.KCoreWithin(S, 2, 2); got != nil {
		t.Fatalf("k=2 on path should be infeasible, got %v", got)
	}
}

func TestPeelerMatchesDecompose(t *testing.T) {
	// On the full vertex set, KCoreWithin(q,k) must equal the connected
	// k-ĉore from the decomposition, for random graphs.
	rnd := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		n := 10 + rnd.Intn(50)
		b := graph.NewBuilder(n)
		for i := 0; i < 5*n; i++ {
			b.AddEdge(graph.V(rnd.Intn(n)), graph.V(rnd.Intn(n)))
		}
		g := b.Build()
		core := Decompose(g)
		p := NewPeeler(g)
		all := make([]graph.V, n)
		for i := range all {
			all[i] = graph.V(i)
		}
		for k := 1; k <= 4; k++ {
			q := graph.V(rnd.Intn(n))
			want := CommunityOf(g, core, q, k)
			got := p.KCoreWithin(all, q, k)
			if (got == nil) != (want == nil) {
				t.Fatalf("trial %d k=%d q=%d: feasibility mismatch (%v vs %v)", trial, k, q, got, want)
			}
			if got != nil && !eq(sorted(got), sorted(want)) {
				t.Fatalf("trial %d k=%d q=%d: %v vs %v", trial, k, q, sorted(got), sorted(want))
			}
		}
	}
}

func TestPeelerResultInvariants(t *testing.T) {
	// Whatever the candidate set, a non-nil result is connected, contains q,
	// and has min internal degree >= k.
	rnd := rand.New(rand.NewSource(123))
	for trial := 0; trial < 50; trial++ {
		n := 10 + rnd.Intn(40)
		b := graph.NewBuilder(n)
		for i := 0; i < 4*n; i++ {
			b.AddEdge(graph.V(rnd.Intn(n)), graph.V(rnd.Intn(n)))
		}
		g := b.Build()
		p := NewPeeler(g)
		// Random candidate subset.
		var S []graph.V
		for v := 0; v < n; v++ {
			if rnd.Float64() < 0.7 {
				S = append(S, graph.V(v))
			}
		}
		if len(S) == 0 {
			continue
		}
		q := S[rnd.Intn(len(S))]
		k := 1 + rnd.Intn(3)
		res := p.KCoreWithin(S, q, k)
		if res == nil {
			continue
		}
		members := make(map[graph.V]bool, len(res))
		hasQ := false
		for _, v := range res {
			members[v] = true
			if v == q {
				hasQ = true
			}
		}
		if !hasQ {
			t.Fatalf("trial %d: result missing q", trial)
		}
		for _, v := range res {
			d := 0
			for _, u := range g.Neighbors(v) {
				if members[u] {
					d++
				}
			}
			if d < k {
				t.Fatalf("trial %d: vertex %d has internal degree %d < k=%d", trial, v, d, k)
			}
		}
		// Connectivity: BFS within members from q must reach all.
		visited := graph.NewMarker(n)
		reach := graph.BFSFrom(g, q, func(v graph.V) bool { return members[v] }, visited, nil)
		if len(reach) != len(res) {
			t.Fatalf("trial %d: result not connected (%d vs %d)", trial, len(reach), len(res))
		}
	}
}

func TestPeelerReuseNoCorruption(t *testing.T) {
	g := paperGraph()
	p := NewPeeler(g)
	S1 := []graph.V{0, 1, 2}
	S2 := []graph.V{6, 7, 8}
	a := append([]graph.V(nil), p.KCoreWithin(S1, 0, 2)...)
	_ = p.KCoreWithin(S2, 6, 2)
	b := append([]graph.V(nil), p.KCoreWithin(S1, 0, 2)...)
	if !eq(sorted(a), sorted(b)) {
		t.Fatalf("reuse corrupted results: %v vs %v", a, b)
	}
	if !p.Feasible(S1, 0, 2) || p.Feasible([]graph.V{0, 1}, 0, 2) {
		t.Fatal("Feasible wrapper broken")
	}
}

func BenchmarkDecompose(b *testing.B) {
	rnd := rand.New(rand.NewSource(1))
	n := 20000
	bb := graph.NewBuilder(n)
	for i := 0; i < 100000; i++ {
		bb.AddEdge(graph.V(rnd.Intn(n)), graph.V(rnd.Intn(n)))
	}
	g := bb.Build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Decompose(g)
	}
}

func BenchmarkPeeler(b *testing.B) {
	rnd := rand.New(rand.NewSource(2))
	n := 5000
	bb := graph.NewBuilder(n)
	for i := 0; i < 40000; i++ {
		bb.AddEdge(graph.V(rnd.Intn(n)), graph.V(rnd.Intn(n)))
	}
	g := bb.Build()
	p := NewPeeler(g)
	S := make([]graph.V, n)
	for i := range S {
		S[i] = graph.V(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.KCoreWithin(S, 0, 4)
	}
}
