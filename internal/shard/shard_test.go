package shard

import (
	"bytes"
	"runtime"
	"slices"
	"testing"

	"sacsearch/internal/dataset"
	"sacsearch/internal/gen"
	"sacsearch/internal/graph"
)

// testGraph builds a spatially clustered social graph — the shape the
// partitioner is designed for.
func testGraph(n, m int, seed int64) *graph.Graph {
	b := gen.SocialGraph(n, m, seed)
	gen.PlaceSpatial(b, 0.02, 0.5, seed+1)
	return b.Build()
}

// TestPartitionDeterminism is the determinism property test: the same graph
// and shard count always produce an identical map — across repeated runs
// and across graph.Clone — and every vertex lands on exactly one shard.
func TestPartitionDeterminism(t *testing.T) {
	g := testGraph(2000, 8000, 42)
	for _, shards := range []int{1, 2, 3, 7, 16} {
		m1, err := Partition(g, shards)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if len(m1.Owner) != g.NumVertices() {
			t.Fatalf("shards=%d: map covers %d vertices, graph has %d", shards, len(m1.Owner), g.NumVertices())
		}
		counted := 0
		for id := 0; id < shards; id++ {
			counted += m1.OwnedCount(id)
		}
		if counted != g.NumVertices() {
			t.Fatalf("shards=%d: shard sizes sum to %d, want %d (a vertex is owned by != 1 shard)",
				shards, counted, g.NumVertices())
		}
		for v, o := range m1.Owner {
			if int(o) >= shards {
				t.Fatalf("shards=%d: vertex %d assigned to nonexistent shard %d", shards, v, o)
			}
		}
		// Re-run on the same graph, and on an independent deep copy.
		m2, err := Partition(g, shards)
		if err != nil {
			t.Fatal(err)
		}
		m3, err := Partition(g.Clone(), shards)
		if err != nil {
			t.Fatal(err)
		}
		for v := range m1.Owner {
			if m1.Owner[v] != m2.Owner[v] {
				t.Fatalf("shards=%d: rerun moved vertex %d from shard %d to %d", shards, v, m1.Owner[v], m2.Owner[v])
			}
			if m1.Owner[v] != m3.Owner[v] {
				t.Fatalf("shards=%d: clone moved vertex %d from shard %d to %d", shards, v, m1.Owner[v], m3.Owner[v])
			}
		}
		if m1.Checksum() != m2.Checksum() || m1.Checksum() != m3.Checksum() {
			t.Fatalf("shards=%d: checksums differ across identical cuts", shards)
		}
		// Balance: the greedy quota walk assigns whole grid cells, so a
		// shard can overshoot by one cell's population but never by more
		// than the densest cell. Sanity-check against gross imbalance.
		for id := 0; id < shards; id++ {
			if c := m1.OwnedCount(id); c == g.NumVertices() && shards > 1 {
				t.Fatalf("shards=%d: shard %d owns every vertex", shards, id)
			}
		}
	}
}

func TestPartitionRejects(t *testing.T) {
	g := testGraph(50, 100, 1)
	if _, err := Partition(g, 0); err == nil {
		t.Fatal("shards=0 accepted")
	}
	if _, err := Partition(g, 1<<16+1); err == nil {
		t.Fatal("shards > 65536 accepted")
	}
	if _, err := Partition(graph.NewBuilder(0).Build(), 2); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestMapRoundTrip(t *testing.T) {
	g := testGraph(500, 2000, 7)
	m, err := Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteMap(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMap(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Shards != m.Shards || got.N != m.N || got.Edges != m.Edges || got.CrossEdges != m.CrossEdges {
		t.Fatalf("round trip changed header: %+v vs %+v", got, m)
	}
	for v := range m.Owner {
		if got.Owner[v] != m.Owner[v] {
			t.Fatalf("round trip changed owner of %d: %d vs %d", v, got.Owner[v], m.Owner[v])
		}
	}
	if got.Checksum() != m.Checksum() {
		t.Fatal("round trip changed checksum")
	}
	// Any corrupted byte must be rejected (CRC tail covers everything).
	for _, i := range []int{0, 9, 20, buf.Len() / 2, buf.Len() - 1} {
		bad := append([]byte(nil), buf.Bytes()...)
		bad[i] ^= 0x40
		if _, err := ReadMap(bytes.NewReader(bad)); err == nil {
			t.Fatalf("corruption at byte %d accepted", i)
		}
	}
	// Truncation must be rejected too.
	if _, err := ReadMap(bytes.NewReader(buf.Bytes()[:buf.Len()-3])); err == nil {
		t.Fatal("truncated map accepted")
	}
}

// TestSubgraphInvariants pins the ghost protocol's load-bearing facts: full
// global id space, every owned vertex keeps its complete adjacency and
// authoritative location, every edge is materialized on every owner, and
// cross-shard edges appear on both sides.
func TestSubgraphInvariants(t *testing.T) {
	g := testGraph(800, 3000, 11)
	const shards = 3
	m, err := Partition(g, shards)
	if err != nil {
		t.Fatal(err)
	}
	subs := make([]*graph.Graph, shards)
	for id := 0; id < shards; id++ {
		if subs[id], err = Subgraph(g, m, id); err != nil {
			t.Fatal(err)
		}
		if subs[id].NumVertices() != g.NumVertices() {
			t.Fatalf("shard %d: %d vertices, want global %d", id, subs[id].NumVertices(), g.NumVertices())
		}
	}
	for v := 0; v < g.NumVertices(); v++ {
		id := m.OwnerOf(graph.V(v))
		sub := subs[id]
		if sub.Degree(graph.V(v)) != g.Degree(graph.V(v)) {
			t.Fatalf("vertex %d: owner shard %d materializes degree %d, global is %d",
				v, id, sub.Degree(graph.V(v)), g.Degree(graph.V(v)))
		}
		if sub.Loc(graph.V(v)) != g.Loc(graph.V(v)) {
			t.Fatalf("vertex %d: owner location drifted at cut time", v)
		}
	}
	// Every global edge appears on each endpoint's owner; no shard carries
	// an edge with no owned endpoint.
	for u := 0; u < g.NumVertices(); u++ {
		for _, w := range g.Neighbors(graph.V(u)) {
			if int(w) <= u {
				continue
			}
			for _, id := range []int{m.OwnerOf(graph.V(u)), m.OwnerOf(w)} {
				if !hasEdge(subs[id], graph.V(u), w) {
					t.Fatalf("edge (%d,%d) missing on owner shard %d", u, w, id)
				}
			}
		}
	}
	for id := 0; id < shards; id++ {
		for u := 0; u < subs[id].NumVertices(); u++ {
			for _, w := range subs[id].Neighbors(graph.V(u)) {
				if int(w) <= u {
					continue
				}
				if m.OwnerOf(graph.V(u)) != id && m.OwnerOf(w) != id {
					t.Fatalf("shard %d materializes foreign edge (%d,%d)", id, u, w)
				}
			}
		}
	}
}

func hasEdge(g *graph.Graph, u, w graph.V) bool {
	for _, x := range g.Neighbors(u) {
		if x == w {
			return true
		}
	}
	return false
}

// globalKCoreComponent computes the reference X = the connected component
// of q in the k-core of g, by straightforward peel + BFS.
func globalKCoreComponent(g *graph.Graph, q graph.V, k int) map[graph.V]bool {
	n := g.NumVertices()
	deg := make([]int, n)
	removed := make([]bool, n)
	var queue []graph.V
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(graph.V(v))
		if deg[v] < k {
			removed[v] = true
			queue = append(queue, graph.V(v))
		}
	}
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, w := range g.Neighbors(u) {
			if removed[w] {
				continue
			}
			deg[w]--
			if deg[w] < k {
				removed[w] = true
				queue = append(queue, w)
			}
		}
	}
	if removed[q] {
		return nil
	}
	comp := map[graph.V]bool{q: true}
	stack := []graph.V{q}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Neighbors(u) {
			if !removed[w] && !comp[w] {
				comp[w] = true
				stack = append(stack, w)
			}
		}
	}
	return comp
}

// TestCertSoundness checks both directions of the optimistic-peel
// certificate against the reference global k-core, for every vertex and a
// range of k.
func TestCertSoundness(t *testing.T) {
	g := testGraph(600, 2600, 23)
	const shards = 3
	m, err := Partition(g, shards)
	if err != nil {
		t.Fatal(err)
	}
	certs := make([]*Cert, shards)
	for id := 0; id < shards; id++ {
		sub, err := Subgraph(g, m, id)
		if err != nil {
			t.Fatal(err)
		}
		sv, err := NewServing(m, id)
		if err != nil {
			t.Fatal(err)
		}
		certs[id] = NewCert(sub, sv)
	}
	for k := 1; k <= 6; k++ {
		for v := 0; v < g.NumVertices(); v++ {
			q := graph.V(v)
			id := m.OwnerOf(q)
			alive, certified := certs[id].Contained(q, k)
			X := globalKCoreComponent(g, q, k)
			if !alive {
				// Death soundness: a peeled q must be outside the global
				// k-core — this verdict is served as a final ErrNoCommunity.
				if X != nil {
					t.Fatalf("k=%d q=%d: cert says dead but global candidate set has %d members", k, v, len(X))
				}
				if !certified {
					t.Fatalf("k=%d q=%d: dead verdict must be certified", k, v)
				}
				continue
			}
			if !certified {
				continue // scatter-gather path; covered by the closure test
			}
			// Containment soundness: the certified local component must be
			// exactly X — collected via Expand from q alone.
			members, frontier := certs[id].Expand([]graph.V{q}, k)
			if len(frontier) != 0 {
				t.Fatalf("k=%d q=%d: certified component has frontier ghosts %v", k, v, frontier)
			}
			if len(members) != len(X) {
				t.Fatalf("k=%d q=%d: certified component has %d members, global X has %d", k, v, len(members), len(X))
			}
			for _, mv := range members {
				if !X[mv] {
					t.Fatalf("k=%d q=%d: certified member %d not in global X", k, v, mv)
				}
			}
		}
	}
}

// TestExpandClosure emulates the router's cross-shard closure for
// uncertified queries and checks the gathered set is a superset of X whose
// induced k-core component of q is X exactly.
func TestExpandClosure(t *testing.T) {
	g := testGraph(600, 2600, 31)
	const shards = 4
	m, err := Partition(g, shards)
	if err != nil {
		t.Fatal(err)
	}
	subs := make([]*graph.Graph, shards)
	certs := make([]*Cert, shards)
	for id := 0; id < shards; id++ {
		if subs[id], err = Subgraph(g, m, id); err != nil {
			t.Fatal(err)
		}
		sv, _ := NewServing(m, id)
		certs[id] = NewCert(subs[id], sv)
	}
	for k := 2; k <= 5; k++ {
		for v := 0; v < g.NumVertices(); v += 7 {
			q := graph.V(v)
			owner := m.OwnerOf(q)
			alive, certified := certs[owner].Contained(q, k)
			if !alive || certified {
				continue
			}
			collected := map[graph.V]bool{}
			seeded := map[graph.V]bool{q: true}
			pending := map[int][]graph.V{owner: {q}}
			for len(pending) > 0 {
				next := map[int][]graph.V{}
				for id, seeds := range pending {
					members, frontier := certs[id].Expand(seeds, k)
					for _, mv := range members {
						collected[mv] = true
					}
					for _, f := range frontier {
						if !seeded[f] && !collected[f] {
							seeded[f] = true
							fo := m.OwnerOf(f)
							next[fo] = append(next[fo], f)
						}
					}
				}
				pending = next
			}
			X := globalKCoreComponent(g, q, k)
			for xv := range X {
				if !collected[xv] {
					t.Fatalf("k=%d q=%d: global candidate %d missing from closure", k, v, xv)
				}
			}
			// The closure over-collects (optimistic survivors); the induced
			// k-core component of q must still be X exactly.
			induced := inducedComponent(g, collected, q, k)
			if len(induced) != len(X) {
				t.Fatalf("k=%d q=%d: induced component has %d members, X has %d", k, v, len(induced), len(X))
			}
			for xv := range X {
				if !induced[xv] {
					t.Fatalf("k=%d q=%d: X member %d missing from induced component", k, v, xv)
				}
			}
		}
	}
}

// inducedComponent peels the subgraph of g induced by keep down to its
// k-core and returns q's component in it.
func inducedComponent(g *graph.Graph, keep map[graph.V]bool, q graph.V, k int) map[graph.V]bool {
	deg := map[graph.V]int{}
	for v := range keep {
		d := 0
		for _, w := range g.Neighbors(v) {
			if keep[w] {
				d++
			}
		}
		deg[v] = d
	}
	removed := map[graph.V]bool{}
	var queue []graph.V
	for v := range keep {
		if deg[v] < k {
			removed[v] = true
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, w := range g.Neighbors(u) {
			if !keep[w] || removed[w] {
				continue
			}
			deg[w]--
			if deg[w] < k && !removed[w] {
				removed[w] = true
				queue = append(queue, w)
			}
		}
	}
	if removed[q] || !keep[q] {
		return nil
	}
	comp := map[graph.V]bool{q: true}
	stack := []graph.V{q}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Neighbors(u) {
			if keep[w] && !removed[w] && !comp[w] {
				comp[w] = true
				stack = append(stack, w)
			}
		}
	}
	return comp
}

// TestPartitionGolden pins the cut itself: the checksums below were recorded
// at the commit before Partition took over its own bucketisation from the
// spatial package's since-deleted all-vertex grid (558b64b), so any drift in
// the cell sizing — which would make shards cut on different builds
// disagree — fails here.
func TestPartitionGolden(t *testing.T) {
	for _, tc := range []struct {
		dataset  string
		scale    float64
		shards   int
		checksum uint32
	}{
		{"syn1", 0.1, 2, 0x477ea4d3},
		{"syn1", 0.1, 4, 0x4b3ce8c5},
		{"brightkite", 0.05, 2, 0x7db46118},
	} {
		d, err := dataset.Load(tc.dataset, tc.scale)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Partition(d.Graph, tc.shards)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Checksum(); got != tc.checksum {
			t.Fatalf("%s@%v × %d shards: map checksum %#08x, want %#08x",
				tc.dataset, tc.scale, tc.shards, got, tc.checksum)
		}
	}
}

// TestCertStatesBounded: k reaches a certificate from outside, so what the
// certificate retains must not grow with the distinct values asked. 2 000
// orders above every owned degree (each outcome is "all dead") and a sweep
// of every order below it leave the certificate under 2 MB, and the answers
// for the orders real traffic uses are the same before and after.
func TestCertStatesBounded(t *testing.T) {
	g := testGraph(5000, 20000, 57)
	m, err := Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := Subgraph(g, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	sv, err := NewServing(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	cert := NewCert(sub, sv)

	type verdict struct{ alive, certified bool }
	answers := func() (out []verdict, closure int) {
		for _, k := range []int{3, 4, 7} {
			for v := 0; v < g.NumVertices(); v++ {
				if sv.Owns(graph.V(v)) {
					alive, certified := cert.Contained(graph.V(v), k)
					out = append(out, verdict{alive, certified})
					if alive && v%50 == 0 {
						members, frontier := cert.Expand([]graph.V{graph.V(v)}, k)
						closure += len(members) + len(frontier)
					}
				}
			}
		}
		return out, closure
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	want, wantClosure := answers()
	before := heap()
	seed := graph.V(0)
	for !sv.Owns(seed) {
		seed++
	}
	for k := 1000; k < 3000; k++ {
		if alive, certified := cert.Contained(seed, k); alive || !certified {
			t.Fatalf("k=%d above every degree: alive=%v certified=%v, want a certified death", k, alive, certified)
		}
		if members, frontier := cert.Expand([]graph.V{seed}, k); members != nil || frontier != nil {
			t.Fatalf("k=%d above every degree: Expand returned %d members", k, len(members))
		}
	}
	for k := 1; k < 200; k++ {
		cert.Contained(seed, k)
	}
	if grown := int64(heap()) - int64(before); grown > 2<<20 {
		t.Fatalf("certificate retains %d bytes after 2 199 distinct k, want under 2 MB", grown)
	}
	got, gotClosure := answers()
	if !slices.Equal(got, want) || gotClosure != wantClosure {
		t.Fatalf("answers for k in {3, 4, 7} changed across the sweep (closure %d vs %d)", gotClosure, wantClosure)
	}
	runtime.KeepAlive(cert)
}
