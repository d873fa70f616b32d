package kclique

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

func equalSets(a, b []graph.V) bool {
	as, bs := sorted(a), sorted(b)
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// randomGraph builds a random multigraph-free graph with roughly density*n
// edges.
func randomGraph(rnd *rand.Rand, n, edges int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < edges; i++ {
		b.AddEdge(graph.V(rnd.Intn(n)), graph.V(rnd.Intn(n)))
	}
	return b.Build()
}

func binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	r := 1
	for i := 0; i < k; i++ {
		r = r * (n - i) / (i + 1)
	}
	return r
}

// countCliques is the number of distinct k-cliques containing q, counted
// through the package's own enumerator.
func countCliques(g *graph.Graph, q graph.V, k int) int {
	if k <= 1 {
		return 1
	}
	count := 0
	seen := make(map[string]bool)
	cliquesContaining(g, q, k, func(v graph.V) bool { return true }, func(c []graph.V) {
		key := cliqueKey(c)
		if !seen[key] {
			seen[key] = true
			count++
		}
	})
	return count
}

func TestCountCliquesCompleteGraph(t *testing.T) {
	// K_n has C(n-1, k-1) k-cliques through any fixed vertex.
	for n := 3; n <= 7; n++ {
		g := clique(n)
		for k := 2; k <= n; k++ {
			got := countCliques(g, 0, k)
			want := binomial(n-1, k-1)
			if got != want {
				t.Fatalf("K_%d: countCliques(0, %d) = %d, want %d", n, k, got, want)
			}
		}
		if got := countCliques(g, 0, n+1); got != 0 {
			t.Fatalf("K_%d: %d-cliques through 0 = %d, want 0", n, n+1, got)
		}
	}
}

func TestCommunityOfCompleteGraph(t *testing.T) {
	g := clique(5)
	for k := 3; k <= 5; k++ {
		got := CommunityOf(g, 0, k)
		if len(got) != 5 {
			t.Fatalf("K5 k=%d community = %v, want all 5", k, got)
		}
	}
	if got := CommunityOf(g, 0, 6); got != nil {
		t.Fatalf("K5 k=6 community = %v, want nil", got)
	}
}

func TestCommunityOfSharedEdge(t *testing.T) {
	// Two triangles sharing edge 1-2: one 3-clique community (they overlap
	// in k-1 = 2 vertices).
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 2)
	b.AddEdge(1, 3)
	b.AddEdge(2, 3)
	g := b.Build()
	got := CommunityOf(g, 0, 3)
	if !equalSets(got, []graph.V{0, 1, 2, 3}) {
		t.Fatalf("shared-edge community = %v, want all 4", got)
	}
}

func TestCommunityOfSharedVertex(t *testing.T) {
	// Two triangles sharing only vertex 2: for k=3 they are distinct
	// communities. From the shared vertex both are seeds (q belongs to
	// both); from a private vertex only its own triangle is reachable.
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(2, 4)
	b.AddEdge(3, 4)
	g := b.Build()

	if got := CommunityOf(g, 2, 3); !equalSets(got, []graph.V{0, 1, 2, 3, 4}) {
		t.Fatalf("community of shared vertex = %v, want all 5", got)
	}
	if got := CommunityOf(g, 0, 3); !equalSets(got, []graph.V{0, 1, 2}) {
		t.Fatalf("community of private vertex = %v, want its triangle", got)
	}
}

func TestCommunityOfTriangleChain(t *testing.T) {
	// Triangles (0,1,2), (1,2,3), (2,3,4) chained through shared edges form
	// one 3-clique community; vertex 5 hangs off a chord-free square and is
	// in no triangle.
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 2)
	b.AddEdge(1, 3)
	b.AddEdge(2, 3)
	b.AddEdge(2, 4)
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	g := b.Build()

	got := CommunityOf(g, 0, 3)
	if !equalSets(got, []graph.V{0, 1, 2, 3, 4}) {
		t.Fatalf("chain community = %v, want 0..4", got)
	}
	if got := CommunityOf(g, 5, 3); got != nil {
		t.Fatalf("triangle-free vertex community = %v, want nil", got)
	}
}

func TestCommunityOfBridgedCliques(t *testing.T) {
	// Two K4s joined by a single bridge edge: the bridge is in no triangle,
	// so each K4 is its own 4-clique (and 3-clique) community.
	b := graph.NewBuilder(8)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.AddEdge(graph.V(i), graph.V(j))
			b.AddEdge(graph.V(i+4), graph.V(j+4))
		}
	}
	b.AddEdge(3, 4)
	g := b.Build()

	for _, k := range []int{3, 4} {
		got := CommunityOf(g, 0, k)
		if !equalSets(got, []graph.V{0, 1, 2, 3}) {
			t.Fatalf("k=%d community of 0 = %v, want first K4", k, got)
		}
	}
	// k=2 degenerates to connectivity: the bridge joins everything.
	if got := CommunityOf(g, 0, 2); len(got) != 8 {
		t.Fatalf("k=2 community size = %d, want 8", len(got))
	}
}

func TestCommunityOfDegenerate(t *testing.T) {
	g := clique(4)
	if got := CommunityOf(g, 1, 1); !equalSets(got, []graph.V{1}) {
		t.Fatalf("k=1 community = %v, want {1}", got)
	}
	if got := CommunityOf(g, 1, 0); !equalSets(got, []graph.V{1}) {
		t.Fatalf("k=0 community = %v, want {1}", got)
	}

	// Isolated vertex: no 2-clique.
	bg := graph.NewBuilder(3)
	bg.AddEdge(0, 1)
	g2 := bg.Build()
	if got := CommunityOf(g2, 2, 2); got != nil {
		t.Fatalf("isolated k=2 community = %v, want nil", got)
	}
	if got := CommunityOf(g2, 2, 3); got != nil {
		t.Fatalf("isolated k=3 community = %v, want nil", got)
	}
}

func TestKCliqueWithinRestriction(t *testing.T) {
	g := clique(5)
	c := NewChecker(g)
	S := []graph.V{0, 1, 2}
	if got := c.KCliqueWithin(S, 0, 3); !equalSets(got, S) {
		t.Fatalf("restricted 3-clique community = %v, want %v", got, S)
	}
	if got := c.KCliqueWithin(S, 0, 4); got != nil {
		t.Fatalf("restricted 4-clique community = %v, want nil", got)
	}
	// q outside S.
	if got := c.KCliqueWithin(S, 4, 3); got != nil {
		t.Fatalf("q outside S = %v, want nil", got)
	}
}

func TestCheckerMatchesCommunityOf(t *testing.T) {
	rnd := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		n := 10 + rnd.Intn(20)
		g := randomGraph(rnd, n, 5*n)
		c := NewChecker(g)
		all := make([]graph.V, n)
		for i := range all {
			all[i] = graph.V(i)
		}
		for k := 3; k <= 5; k++ {
			q := graph.V(rnd.Intn(n))
			want := CommunityOf(g, q, k)
			got := c.KCliqueWithin(all, q, k)
			if (got == nil) != (want == nil) {
				t.Fatalf("trial %d k=%d q=%d: feasibility mismatch (%v vs %v)",
					trial, k, q, got, want)
			}
			if got != nil && !equalSets(got, want) {
				t.Fatalf("trial %d k=%d q=%d: %v vs %v", trial, k, q, sorted(got), sorted(want))
			}
		}
	}
}

// Monotonicity: the community within S is contained in the community within
// any superset S' — the property AppFast's radius binary search relies on.
func TestKCliqueWithinMonotone(t *testing.T) {
	rnd := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		n := 12 + rnd.Intn(15)
		g := randomGraph(rnd, n, 6*n)
		c := NewChecker(g)
		// S ⊂ S': random subset and its extension.
		var S, S2 []graph.V
		for v := 0; v < n; v++ {
			r := rnd.Float64()
			if r < 0.5 {
				S = append(S, graph.V(v))
				S2 = append(S2, graph.V(v))
			} else if r < 0.8 {
				S2 = append(S2, graph.V(v))
			}
		}
		if len(S) == 0 {
			continue
		}
		q := S[rnd.Intn(len(S))]
		small := append([]graph.V(nil), c.KCliqueWithin(S, q, 3)...)
		big := c.KCliqueWithin(S2, q, 3)
		if small == nil {
			continue
		}
		if big == nil {
			t.Fatalf("trial %d: community exists in S but not in S' ⊇ S", trial)
		}
		inBig := map[graph.V]bool{}
		for _, v := range big {
			inBig[v] = true
		}
		for _, v := range small {
			if !inBig[v] {
				t.Fatalf("trial %d: member %d of community(S) missing from community(S')", trial, v)
			}
		}
	}
}

// Every member of a k-clique community must itself sit in a k-clique of the
// community: checked by re-querying the checker restricted to the community.
func TestCommunityMembersInKClique(t *testing.T) {
	rnd := rand.New(rand.NewSource(123))
	for trial := 0; trial < 15; trial++ {
		n := 10 + rnd.Intn(20)
		g := randomGraph(rnd, n, 6*n)
		q := graph.V(rnd.Intn(n))
		k := 3 + rnd.Intn(2)
		comm := CommunityOf(g, q, k)
		if comm == nil {
			continue
		}
		c := NewChecker(g)
		snapshot := append([]graph.V(nil), comm...)
		for _, v := range snapshot {
			if c.KCliqueWithin(snapshot, v, k) == nil {
				t.Fatalf("trial %d: member %d of k=%d community is in no k-clique", trial, v, k)
			}
		}
	}
}

// The community is connected in G.
func TestCommunityConnected(t *testing.T) {
	rnd := rand.New(rand.NewSource(222))
	for trial := 0; trial < 15; trial++ {
		n := 10 + rnd.Intn(25)
		g := randomGraph(rnd, n, 5*n)
		q := graph.V(rnd.Intn(n))
		comm := CommunityOf(g, q, 3)
		if comm == nil {
			continue
		}
		in := map[graph.V]bool{}
		for _, v := range comm {
			in[v] = true
		}
		if !in[q] {
			t.Fatalf("trial %d: community misses q", trial)
		}
		// BFS within the community from q must reach every member.
		seen := map[graph.V]bool{q: true}
		queue := []graph.V{q}
		for head := 0; head < len(queue); head++ {
			for _, u := range g.Neighbors(queue[head]) {
				if in[u] && !seen[u] {
					seen[u] = true
					queue = append(queue, u)
				}
			}
		}
		if len(seen) != len(comm) {
			t.Fatalf("trial %d: community disconnected (%d of %d reachable)",
				trial, len(seen), len(comm))
		}
	}
}

func TestCheckerReuse(t *testing.T) {
	g := clique(6)
	c := NewChecker(g)
	all := []graph.V{0, 1, 2, 3, 4, 5}
	a := append([]graph.V(nil), c.KCliqueWithin(all, 0, 4)...)
	_ = c.KCliqueWithin([]graph.V{0, 1, 2}, 0, 3)
	b := c.KCliqueWithin(all, 0, 4)
	if !equalSets(a, b) {
		t.Fatalf("reuse corrupted: %v vs %v", a, b)
	}
}

func TestCliqueKeyDistinct(t *testing.T) {
	a := cliqueKey([]graph.V{1, 2, 3})
	b := cliqueKey([]graph.V{1, 2, 4})
	c := cliqueKey([]graph.V{1, 2, 3})
	if a == b {
		t.Fatal("distinct cliques share a key")
	}
	if a != c {
		t.Fatal("equal cliques get different keys")
	}
}

func BenchmarkKCliqueWithin(b *testing.B) {
	rnd := rand.New(rand.NewSource(4))
	n := 300
	bb := graph.NewBuilder(n)
	for i := 0; i < 3000; i++ {
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
		_ = c.KCliqueWithin(S, 0, 4)
	}
}

func BenchmarkCommunityOf(b *testing.B) {
	rnd := rand.New(rand.NewSource(9))
	n := 500
	bb := graph.NewBuilder(n)
	for i := 0; i < 5000; i++ {
		bb.AddEdge(graph.V(rnd.Intn(n)), graph.V(rnd.Intn(n)))
	}
	g := bb.Build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = CommunityOf(g, 0, 4)
	}
}
