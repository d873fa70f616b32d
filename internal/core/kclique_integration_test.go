package core

import (
	"errors"
	"math"
	"testing"

	"sacsearch/internal/graph"
	"sacsearch/internal/kclique"
)

// validateCliqueCommunity checks the SAC properties under the k-clique
// metric: q inside, connected, and every member participating in a k-clique
// of the community.
func validateCliqueCommunity(t *testing.T, g *graph.Graph, res *Result, q graph.V, k int) {
	t.Helper()
	if !res.Contains(q) {
		t.Fatalf("community misses q=%d: %v", q, res.Members)
	}
	in := map[graph.V]bool{}
	for _, v := range res.Members {
		in[v] = true
	}
	// Connectivity.
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
	if len(seen) != len(res.Members) {
		t.Fatalf("community disconnected: %d of %d reachable", len(seen), len(res.Members))
	}
	// Clique membership (skip the degenerate k ≤ 1 community {q}).
	if k >= 2 && len(res.Members) > 1 {
		chk := kclique.NewChecker(g)
		for _, v := range res.Members {
			if chk.KCliqueWithin(res.Members, v, k) == nil {
				t.Fatalf("member %d is in no %d-clique of the community %v", v, k, res.Members)
			}
		}
	}
	// MCC covers all members.
	for _, v := range res.Members {
		if !res.MCC.Contains(g.Loc(v)) {
			t.Fatalf("MCC %v misses member %d at %v", res.MCC, v, g.Loc(v))
		}
	}
}

func TestKCliqueStructurePaperExample(t *testing.T) {
	// Figure 3 under the 3-clique metric: the seed cliques of Q are the two
	// triangles {Q,A,B} and {Q,C,D}; {C,D,E} extends the second through the
	// shared edge C-D. The spatially optimal community is the triangle
	// {Q,C,D} with MCC radius 1.5, as in the k-core variant.
	g := figure3()
	s := NewSearcherWithStructure(g, StructureKClique)

	res, err := s.Exact(vQ, 3)
	if err != nil {
		t.Fatalf("Exact: %v", err)
	}
	validateCliqueCommunity(t, g, res, vQ, 3)
	if !membersEqual(res.Members, vQ, vC, vD) {
		t.Fatalf("Exact members = %v, want {Q,C,D}", res.Members)
	}
	if math.Abs(res.Radius()-1.5) > 1e-9 {
		t.Fatalf("Exact radius = %v, want 1.5", res.Radius())
	}

	resP, err := s.ExactPlus(vQ, 3, 0.1)
	if err != nil {
		t.Fatalf("ExactPlus: %v", err)
	}
	validateCliqueCommunity(t, g, resP, vQ, 3)
	if math.Abs(resP.Radius()-1.5) > 1e-9 {
		t.Fatalf("ExactPlus radius = %v, want 1.5", resP.Radius())
	}

	// Approximations stay within their guarantees relative to ropt = 1.5.
	for _, tc := range []struct {
		name  string
		run   func() (*Result, error)
		bound float64
	}{
		{"AppInc", func() (*Result, error) { return s.AppInc(vQ, 3) }, 2.0},
		{"AppFast", func() (*Result, error) { return s.AppFast(vQ, 3, 0.5) }, 2.5},
		{"AppAcc", func() (*Result, error) { return s.AppAcc(vQ, 3, 0.5) }, 1.5},
	} {
		res, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		validateCliqueCommunity(t, g, res, vQ, 3)
		if ratio := res.Radius() / 1.5; ratio > tc.bound+1e-9 {
			t.Fatalf("%s ratio = %v exceeds bound %v", tc.name, ratio, tc.bound)
		}
	}
}

func TestKCliqueTrivialK(t *testing.T) {
	g := figure3()
	s := NewSearcherWithStructure(g, StructureKClique)

	// k = 1: q alone (a vertex is a 1-clique).
	res, err := s.AppFast(vQ, 1, 0.5)
	if err != nil {
		t.Fatalf("k=1: %v", err)
	}
	if !membersEqual(res.Members, vQ) {
		t.Fatalf("k=1 members = %v, want {Q}", res.Members)
	}
	if res.Radius() != 0 {
		t.Fatalf("k=1 radius = %v, want 0", res.Radius())
	}
	// k = 2: q plus its nearest neighbor (an edge is a 2-clique).
	res, err = s.ExactPlus(vQ, 2, 0.1)
	if err != nil {
		t.Fatalf("k=2: %v", err)
	}
	if len(res.Members) != 2 || !res.Contains(vQ) {
		t.Fatalf("k=2 members = %v, want q plus nearest neighbor", res.Members)
	}
}

func TestKCliqueNoCommunity(t *testing.T) {
	// I is pendant: it is in no triangle, so no 3-clique community.
	g := figure3()
	s := NewSearcherWithStructure(g, StructureKClique)
	for _, run := range []func() (*Result, error){
		func() (*Result, error) { return s.Exact(vI, 3) },
		func() (*Result, error) { return s.AppInc(vI, 3) },
		func() (*Result, error) { return s.AppFast(vI, 3, 0.5) },
		func() (*Result, error) { return s.AppAcc(vI, 3, 0.5) },
		func() (*Result, error) { return s.ExactPlus(vI, 3, 0.1) },
	} {
		if _, err := run(); !errors.Is(err, ErrNoCommunity) {
			t.Fatalf("pendant vertex: err = %v, want ErrNoCommunity", err)
		}
	}
}

func TestKCliqueAlgorithmsAgreeOnClusteredGraphs(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g := clusteredGraph(seed, 6, 6, 10)
		s := NewSearcherWithStructure(g, StructureKClique)
		q := graph.V(0)
		k := 4

		exact, err := s.ExactPlus(q, k, 0.05)
		if errors.Is(err, ErrNoCommunity) {
			continue
		}
		if err != nil {
			t.Fatalf("seed %d: ExactPlus: %v", seed, err)
		}
		validateCliqueCommunity(t, g, exact, q, k)
		ropt := exact.Radius()

		inc, err := s.AppInc(q, k)
		if err != nil {
			t.Fatalf("seed %d: AppInc: %v", seed, err)
		}
		validateCliqueCommunity(t, g, inc, q, k)
		if ropt > 0 && inc.Radius()/ropt > 2+1e-9 {
			t.Fatalf("seed %d: AppInc ratio %v > 2", seed, inc.Radius()/ropt)
		}

		fast, err := s.AppFast(q, k, 0.5)
		if err != nil {
			t.Fatalf("seed %d: AppFast: %v", seed, err)
		}
		validateCliqueCommunity(t, g, fast, q, k)
		if ropt > 0 && fast.Radius()/ropt > 2.5+1e-9 {
			t.Fatalf("seed %d: AppFast ratio %v > 2.5", seed, fast.Radius()/ropt)
		}

		acc, err := s.AppAcc(q, k, 0.2)
		if err != nil {
			t.Fatalf("seed %d: AppAcc: %v", seed, err)
		}
		validateCliqueCommunity(t, g, acc, q, k)
		if ropt > 0 && acc.Radius()/ropt > 1.2+1e-9 {
			t.Fatalf("seed %d: AppAcc ratio %v > 1.2", seed, acc.Radius()/ropt)
		}
	}
}

func TestKCliqueCloneIndependent(t *testing.T) {
	g := figure3()
	s := NewSearcherWithStructure(g, StructureKClique)
	c := s.Clone()
	a, err := s.AppFast(vQ, 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.AppFast(vQ, 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !membersEqual(a.Members, b.Members...) {
		t.Fatalf("clone diverged: %v vs %v", a.Members, b.Members)
	}
}
