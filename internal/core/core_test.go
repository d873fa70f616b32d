package core

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
)

// Vertex names for the Figure 3 fixture.
const (
	vQ graph.V = iota
	vA
	vB
	vC
	vD
	vE
	vF
	vG
	vH
	vI
)

// figure3 builds the worked example of Section 3 (Example 1, Figure 3) with
// coordinates chosen to reproduce the published quantities exactly:
//
//	|Q,A| = |Q,B| = |Q,D| = √5 ≈ 2.236 (the paper's 2.24)
//	MCC{Q,A,B} has radius √13/2 ≈ 1.803 (A and B straddle Q vertically)
//	MCC{Q,C,D} has radius 1.5 — the optimal SAC for q=Q, k=2
//	|Q,E| = √26 ≈ 5.10 (the paper's AppFast upper bound)
//
// Edges: triangles {Q,A,B} and {Q,C,D}, E tied to C and D, pendant I on E,
// and a separate triangle {F,G,H}. The 2-core has components
// {Q,A,B,C,D,E} and {F,G,H}, exactly as in Figure 3(b).
func figure3() *graph.Graph {
	b := graph.NewBuilder(10)
	xm := 3 - math.Sqrt(1.75) // A/B share this x: |QM| = √1.75
	half := math.Sqrt(13) / 2 // half of |A,B|
	b.SetLoc(vQ, geom.Point{X: 3, Y: 2})
	b.SetLoc(vA, geom.Point{X: xm, Y: 2 + half})
	b.SetLoc(vB, geom.Point{X: xm, Y: 2 - half})
	b.SetLoc(vC, geom.Point{X: 3, Y: 5})
	b.SetLoc(vD, geom.Point{X: 4, Y: 4})
	b.SetLoc(vE, geom.Point{X: 8, Y: 3})
	b.SetLoc(vF, geom.Point{X: 6, Y: 1})
	b.SetLoc(vG, geom.Point{X: 7, Y: 1})
	b.SetLoc(vH, geom.Point{X: 6.5, Y: 1.8})
	b.SetLoc(vI, geom.Point{X: 8, Y: 4})
	edges := [][2]graph.V{
		{vQ, vA}, {vQ, vB}, {vA, vB},
		{vQ, vC}, {vQ, vD}, {vC, vD},
		{vC, vE}, {vD, vE},
		{vF, vG}, {vF, vH}, {vG, vH},
		{vE, vI},
	}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

func membersEqual(got []graph.V, want ...graph.V) bool {
	if len(got) != len(want) {
		return false
	}
	g := append([]graph.V(nil), got...)
	w := append([]graph.V(nil), want...)
	sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
	sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
	for i := range g {
		if g[i] != w[i] {
			return false
		}
	}
	return true
}

// validateCommunity checks the three SAC properties (Problem 1): q inside,
// connectivity, and min internal degree >= k; plus that the MCC covers all
// members.
func validateCommunity(t *testing.T, g *graph.Graph, res *Result, q graph.V, k int) {
	t.Helper()
	if !res.Contains(q) {
		t.Fatalf("community misses q=%d: %v", q, res.Members)
	}
	in := map[graph.V]bool{}
	for _, v := range res.Members {
		in[v] = true
	}
	if len(res.Members) > 1 {
		for _, v := range res.Members {
			d := 0
			for _, u := range g.Neighbors(v) {
				if in[u] {
					d++
				}
			}
			if d < k {
				t.Fatalf("vertex %d has internal degree %d < k=%d (members %v)", v, d, k, res.Members)
			}
		}
	}
	visited := graph.NewMarker(g.NumVertices())
	reach := graph.BFSFrom(g, q, func(v graph.V) bool { return in[v] }, visited, nil)
	if len(reach) != len(res.Members) {
		t.Fatalf("community not connected: reached %d of %d", len(reach), len(res.Members))
	}
	grow := geom.Circle{C: res.MCC.C, R: res.MCC.R * (1 + 1e-9)}
	for _, v := range res.Members {
		if !grow.Contains(g.Loc(v)) {
			t.Fatalf("MCC %+v misses member %d at %v", res.MCC, v, g.Loc(v))
		}
	}
}

func TestExactPaperExample(t *testing.T) {
	g := figure3()
	s := NewSearcher(g)
	res, err := s.Exact(vQ, 2)
	if err != nil {
		t.Fatal(err)
	}
	validateCommunity(t, g, res, vQ, 2)
	if !membersEqual(res.Members, vQ, vC, vD) {
		t.Fatalf("Exact members = %v, want {Q,C,D}", res.Members)
	}
	if math.Abs(res.Radius()-1.5) > 1e-6 {
		t.Fatalf("ropt = %v, want 1.5", res.Radius())
	}
	if res.Stats.CirclesExamined == 0 || res.Stats.FeasibilityChecks == 0 {
		t.Fatalf("stats not populated: %+v", res.Stats)
	}
}

func TestAppIncPaperExample(t *testing.T) {
	g := figure3()
	s := NewSearcher(g)
	res, err := s.AppInc(vQ, 2)
	if err != nil {
		t.Fatal(err)
	}
	validateCommunity(t, g, res, vQ, 2)
	if !membersEqual(res.Members, vQ, vA, vB) {
		t.Fatalf("AppInc members = %v, want {Q,A,B}", res.Members)
	}
	// Example 2: γ = 1.803, δ = 2.236, actual ratio 1.202.
	if math.Abs(res.Radius()-math.Sqrt(13)/2) > 1e-6 {
		t.Fatalf("γ = %v, want %v", res.Radius(), math.Sqrt(13)/2)
	}
	if math.Abs(res.Delta-math.Sqrt(5)) > 1e-6 {
		t.Fatalf("δ = %v, want √5", res.Delta)
	}
	if ratio := res.Radius() / 1.5; math.Abs(ratio-1.202) > 1e-3 {
		t.Fatalf("actual ratio = %v, want ≈1.202", ratio)
	}
}

func TestAppFastPaperExample(t *testing.T) {
	g := figure3()
	s := NewSearcher(g)
	// εF = 0 returns Φ, identical to AppInc (Remark after Lemma 5).
	res0, err := s.AppFast(vQ, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !membersEqual(res0.Members, vQ, vA, vB) {
		t.Fatalf("AppFast(0) members = %v, want {Q,A,B}", res0.Members)
	}
	if math.Abs(res0.Delta-math.Sqrt(5)) > 1e-6 {
		t.Fatalf("AppFast(0) δ = %v, want √5", res0.Delta)
	}
	// Example 3 (εF = 0.1) also lands on {Q,A,B}.
	res, err := s.AppFast(vQ, 2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	validateCommunity(t, g, res, vQ, 2)
	if !membersEqual(res.Members, vQ, vA, vB) {
		t.Fatalf("AppFast(0.1) members = %v, want {Q,A,B}", res.Members)
	}
	if res.Stats.BinaryIters == 0 {
		t.Fatal("binary iteration counter not populated")
	}
}

func TestAppAccPaperExample(t *testing.T) {
	g := figure3()
	s := NewSearcher(g)
	// With εA = 0.1 the guarantee (1.1·ropt = 1.65) excludes the radius-1.803
	// community, so AppAcc must find the optimal {Q,C,D}.
	res, err := s.AppAcc(vQ, 2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	validateCommunity(t, g, res, vQ, 2)
	if !membersEqual(res.Members, vQ, vC, vD) {
		t.Fatalf("AppAcc members = %v, want {Q,C,D}", res.Members)
	}
	if res.Radius() > 1.5*1.1+1e-9 {
		t.Fatalf("AppAcc radius %v exceeds (1+εA)·ropt", res.Radius())
	}
	if res.Stats.AnchorsProcessed == 0 {
		t.Fatal("anchor counter not populated")
	}
}

func TestExactPlusPaperExample(t *testing.T) {
	g := figure3()
	s := NewSearcher(g)
	res, err := s.ExactPlus(vQ, 2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	validateCommunity(t, g, res, vQ, 2)
	if !membersEqual(res.Members, vQ, vC, vD) {
		t.Fatalf("ExactPlus members = %v, want {Q,C,D}", res.Members)
	}
	if math.Abs(res.Radius()-1.5) > 1e-6 {
		t.Fatalf("ExactPlus radius = %v, want 1.5", res.Radius())
	}
	if res.Stats.F1Size == 0 {
		t.Fatal("|F1| not populated")
	}
}

func TestThetaSACPaperExample(t *testing.T) {
	g := figure3()
	s := NewSearcher(g)
	// θ < 2.2: no community (nearest candidates sit at √5 ≈ 2.236).
	if _, err := s.ThetaSAC(vQ, 2, 2.0); !errors.Is(err, ErrNoCommunity) {
		t.Fatalf("θ=2.0: err = %v, want ErrNoCommunity", err)
	}
	// θ = 3.1: C1 ∪ C2 = {Q,A,B,C,D}.
	res, err := s.ThetaSAC(vQ, 2, 3.1)
	if err != nil {
		t.Fatal(err)
	}
	validateCommunity(t, g, res, vQ, 2)
	if !membersEqual(res.Members, vQ, vA, vB, vC, vD) {
		t.Fatalf("θ=3.1 members = %v, want {Q,A,B,C,D}", res.Members)
	}
	// θ > 5.1: C3 = {Q,A,B,C,D,E}.
	res, err = s.ThetaSAC(vQ, 2, 6.0)
	if err != nil {
		t.Fatal(err)
	}
	if !membersEqual(res.Members, vQ, vA, vB, vC, vD, vE) {
		t.Fatalf("θ=6 members = %v, want {Q,A,B,C,D,E}", res.Members)
	}
}

func TestSeparateComponent(t *testing.T) {
	g := figure3()
	s := NewSearcher(g)
	for _, algo := range []struct {
		name string
		run  func() (*Result, error)
	}{
		{"Exact", func() (*Result, error) { return s.Exact(vF, 2) }},
		{"ExactPlus", func() (*Result, error) { return s.ExactPlus(vF, 2, 0.2) }},
		{"AppInc", func() (*Result, error) { return s.AppInc(vF, 2) }},
		{"AppFast", func() (*Result, error) { return s.AppFast(vF, 2, 0.5) }},
		{"AppAcc", func() (*Result, error) { return s.AppAcc(vF, 2, 0.5) }},
	} {
		res, err := algo.run()
		if err != nil {
			t.Fatalf("%s: %v", algo.name, err)
		}
		if !membersEqual(res.Members, vF, vG, vH) {
			t.Fatalf("%s members = %v, want {F,G,H}", algo.name, res.Members)
		}
	}
}

func TestTrivialK(t *testing.T) {
	g := figure3()
	s := NewSearcher(g)
	// k = 1: q plus its nearest neighbor (A, B and D tie at √5; the
	// smallest-distance neighbor scanned first wins — A).
	res, err := s.AppInc(vQ, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Members) != 2 || !res.Contains(vQ) {
		t.Fatalf("k=1 result = %v", res.Members)
	}
	if math.Abs(res.Delta-math.Sqrt(5)) > 1e-9 {
		t.Fatalf("k=1 δ = %v, want √5", res.Delta)
	}
	// Isolated query vertex with k = 1 has no community. Build one.
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1)
	lone := b.Build()
	// Vertex ids 0,1 connected; make a third graph with isolated vertex.
	b2 := graph.NewBuilder(1)
	g2 := b2.Build()
	s2 := NewSearcher(g2)
	if _, err := s2.Exact(0, 1); !errors.Is(err, ErrNoCommunity) {
		t.Fatalf("isolated k=1: err = %v", err)
	}
	_ = lone
}

func TestNoCommunityAndErrors(t *testing.T) {
	g := figure3()
	s := NewSearcher(g)
	// I has core number 1: no 2-core community.
	for _, run := range []func() (*Result, error){
		func() (*Result, error) { return s.Exact(vI, 2) },
		func() (*Result, error) { return s.ExactPlus(vI, 2, 0.5) },
		func() (*Result, error) { return s.AppInc(vI, 2) },
		func() (*Result, error) { return s.AppFast(vI, 2, 0.5) },
		func() (*Result, error) { return s.AppAcc(vI, 2, 0.5) },
	} {
		if _, err := run(); !errors.Is(err, ErrNoCommunity) {
			t.Fatalf("expected ErrNoCommunity, got %v", err)
		}
	}
	// Parameter validation.
	if _, err := s.Exact(-1, 2); err == nil {
		t.Fatal("negative vertex accepted")
	}
	if _, err := s.Exact(99, 2); err == nil {
		t.Fatal("out-of-range vertex accepted")
	}
	if _, err := s.Exact(vQ, -1); err == nil {
		t.Fatal("negative k accepted")
	}
	if _, err := s.AppFast(vQ, 2, -0.5); err == nil {
		t.Fatal("negative εF accepted")
	}
	if _, err := s.AppAcc(vQ, 2, 0); err == nil {
		t.Fatal("εA = 0 accepted")
	}
	if _, err := s.AppAcc(vQ, 2, 1.5); err == nil {
		t.Fatal("εA > 1 accepted")
	}
	if _, err := s.ExactPlus(vQ, 2, 0); err == nil {
		t.Fatal("ExactPlus εA = 0 accepted")
	}
	if _, err := s.ThetaSAC(vQ, 2, -1); err == nil {
		t.Fatal("negative θ accepted")
	}
}

// clusteredGraph plants nc cliques of size cs at random locations with some
// extra random edges, giving every query vertex a spatially tight optimal
// community plus noise. Locations live in the unit square.
func clusteredGraph(seed int64, nc, cs, extra int) *graph.Graph {
	rnd := rand.New(rand.NewSource(seed))
	n := nc * cs
	b := graph.NewBuilder(n)
	for c := 0; c < nc; c++ {
		cx, cy := rnd.Float64(), rnd.Float64()
		for i := 0; i < cs; i++ {
			v := graph.V(c*cs + i)
			b.SetLoc(v, geom.Point{
				X: cx + (rnd.Float64()-0.5)*0.05,
				Y: cy + (rnd.Float64()-0.5)*0.05,
			})
			for j := 0; j < i; j++ {
				b.AddEdge(v, graph.V(c*cs+j))
			}
		}
	}
	for i := 0; i < extra; i++ {
		b.AddEdge(graph.V(rnd.Intn(n)), graph.V(rnd.Intn(n)))
	}
	return b.Build()
}

// bruteOptimal enumerates every subset of the candidate k-ĉore (must be
// small) and returns the minimum MCC radius over feasible subsets.
func bruteOptimal(t *testing.T, g *graph.Graph, s *Searcher, q graph.V, k int) float64 {
	t.Helper()
	cand, err := s.candidates(q, k)
	if err != nil {
		t.Fatalf("bruteOptimal: %v", err)
	}
	X := cand.verts
	if len(X) > 18 {
		t.Fatalf("bruteOptimal: candidate set too large (%d)", len(X))
	}
	qi := -1
	for i, v := range X {
		if v == q {
			qi = i
		}
	}
	best := math.Inf(1)
	visited := graph.NewMarker(g.NumVertices())
	for mask := 1; mask < 1<<len(X); mask++ {
		if mask&(1<<qi) == 0 {
			continue
		}
		var members []graph.V
		for i := range X {
			if mask&(1<<i) != 0 {
				members = append(members, X[i])
			}
		}
		// Min degree within subset.
		in := map[graph.V]bool{}
		for _, v := range members {
			in[v] = true
		}
		ok := true
		for _, v := range members {
			d := 0
			for _, u := range g.Neighbors(v) {
				if in[u] {
					d++
				}
			}
			if d < k {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		reach := graph.BFSFrom(g, q, func(v graph.V) bool { return in[v] }, visited, nil)
		if len(reach) != len(members) {
			continue
		}
		if r := g.MCCOf(members).R; r < best {
			best = r
		}
	}
	return best
}

func TestExactMatchesBruteForceOracle(t *testing.T) {
	// Tiny graphs whose candidate sets stay under 18 vertices.
	for seed := int64(0); seed < 8; seed++ {
		g := clusteredGraph(seed, 3, 5, 4)
		s := NewSearcher(g)
		q := graph.V(0)
		k := 3
		if s.CoreNumber(q) < k {
			continue
		}
		cand, _ := s.candidates(q, k)
		if len(cand.verts) > 16 {
			continue
		}
		want := bruteOptimal(t, g, s, q, k)
		res, err := s.Exact(q, k)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if math.Abs(res.Radius()-want) > 1e-7 {
			t.Fatalf("seed %d: Exact radius %v, brute %v", seed, res.Radius(), want)
		}
	}
}

func TestAlgorithmsAgreeOnRandomGraphs(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		g := clusteredGraph(seed, 6, 8, 30)
		s := NewSearcher(g)
		rnd := rand.New(rand.NewSource(seed * 31))
		for trial := 0; trial < 4; trial++ {
			q := graph.V(rnd.Intn(g.NumVertices()))
			k := 2 + rnd.Intn(3)
			if s.CoreNumber(q) < k {
				continue
			}
			exact, err := s.Exact(q, k)
			if err != nil {
				t.Fatalf("Exact: %v", err)
			}
			validateCommunity(t, g, exact, q, k)
			ropt := exact.Radius()

			plus, err := s.ExactPlus(q, k, 0.2)
			if err != nil {
				t.Fatalf("ExactPlus: %v", err)
			}
			validateCommunity(t, g, plus, q, k)
			if math.Abs(plus.Radius()-ropt) > 1e-7 {
				t.Fatalf("seed %d q=%d k=%d: ExactPlus %v vs Exact %v", seed, q, k, plus.Radius(), ropt)
			}

			inc, err := s.AppInc(q, k)
			if err != nil {
				t.Fatalf("AppInc: %v", err)
			}
			validateCommunity(t, g, inc, q, k)
			if ropt > 1e-12 && inc.Radius() > 2*ropt+1e-9 {
				t.Fatalf("AppInc ratio %v > 2", inc.Radius()/ropt)
			}
			// Lemma 3: δ/2 ≤ ropt ≤ γ.
			if inc.Delta/2 > ropt+1e-9 || ropt > inc.Radius()+1e-9 {
				t.Fatalf("Lemma 3 violated: δ=%v γ=%v ropt=%v", inc.Delta, inc.Radius(), ropt)
			}

			fast0, err := s.AppFast(q, k, 0)
			if err != nil {
				t.Fatalf("AppFast: %v", err)
			}
			validateCommunity(t, g, fast0, q, k)
			if math.Abs(fast0.Delta-inc.Delta) > 1e-6 {
				t.Fatalf("AppFast(0) δ=%v differs from AppInc δ=%v", fast0.Delta, inc.Delta)
			}

			for _, epsF := range []float64{0.5, 2.0} {
				fast, err := s.AppFast(q, k, epsF)
				if err != nil {
					t.Fatalf("AppFast(%v): %v", epsF, err)
				}
				validateCommunity(t, g, fast, q, k)
				if ropt > 1e-12 && fast.Radius() > (2+epsF)*ropt+1e-9 {
					t.Fatalf("AppFast(%v) ratio %v > %v", epsF, fast.Radius()/ropt, 2+epsF)
				}
			}

			for _, epsA := range []float64{0.1, 0.5, 0.9} {
				acc, err := s.AppAcc(q, k, epsA)
				if err != nil {
					t.Fatalf("AppAcc(%v): %v", epsA, err)
				}
				validateCommunity(t, g, acc, q, k)
				if ropt > 1e-12 && acc.Radius() > (1+epsA)*ropt+1e-7 {
					t.Fatalf("AppAcc(%v) ratio %v > %v (seed %d q=%d k=%d)",
						epsA, acc.Radius()/ropt, 1+epsA, seed, q, k)
				}
			}
		}
	}
}

func TestExactRadiusMonotoneInK(t *testing.T) {
	g := clusteredGraph(9, 4, 9, 20)
	s := NewSearcher(g)
	q := graph.V(0)
	prev := -1.0
	for k := 2; k <= s.CoreNumber(q); k++ {
		res, err := s.Exact(q, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if res.Radius() < prev-1e-9 {
			t.Fatalf("radius decreased from %v to %v at k=%d", prev, res.Radius(), k)
		}
		prev = res.Radius()
	}
}

func TestThetaSACMonotone(t *testing.T) {
	g := clusteredGraph(11, 5, 7, 25)
	s := NewSearcher(g)
	q := graph.V(0)
	k := 3
	if s.CoreNumber(q) < k {
		t.Skip("fixture lacks a 3-core at q")
	}
	feasibleAt := func(theta float64) bool {
		_, err := s.ThetaSAC(q, k, theta)
		return err == nil
	}
	// Once feasible, staying feasible as θ grows.
	was := false
	for _, theta := range []float64{0.001, 0.01, 0.05, 0.2, 0.5, 1.5} {
		now := feasibleAt(theta)
		if was && !now {
			t.Fatalf("θ-SAC feasibility not monotone at θ=%v", theta)
		}
		was = was || now
	}
	if !was {
		t.Fatal("θ-SAC never feasible even at θ=1.5 on unit-square data")
	}
}

func TestResultHelpers(t *testing.T) {
	g := figure3()
	s := NewSearcher(g)
	res, err := s.Exact(vQ, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 3 {
		t.Fatalf("Size = %d", res.Size())
	}
	if !res.Contains(vC) || res.Contains(vE) {
		t.Fatal("Contains broken")
	}
	if res.Stats.Elapsed <= 0 {
		t.Fatal("Elapsed not stamped")
	}
	if res.K != 2 || res.Query != vQ {
		t.Fatalf("metadata wrong: %+v", res)
	}
}

func TestSearcherClone(t *testing.T) {
	g := figure3()
	s := NewSearcher(g)
	c := s.Clone()
	r1, err := s.Exact(vQ, 2)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Exact(vQ, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !membersEqual(r1.Members, r2.Members...) {
		t.Fatal("clone returns different result")
	}
}

func TestStructureString(t *testing.T) {
	if StructureKCore.String() != "k-core" || StructureKTruss.String() != "k-truss" {
		t.Fatal("Structure.String broken")
	}
	if Structure(9).String() == "" {
		t.Fatal("unknown structure string empty")
	}
}

func TestKTrussStructure(t *testing.T) {
	// Two 4-cliques, one tight around q, one farther; plus noise edges.
	b := graph.NewBuilder(9)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.AddEdge(graph.V(i), graph.V(j))
			b.AddEdge(graph.V(i+4), graph.V(j+4))
		}
	}
	b.AddEdge(0, 4) // bridge
	b.AddEdge(3, 8) // pendant
	// Clique 0-3 near origin, clique 4-7 far away, vertex 8 nearby.
	for i := 0; i < 4; i++ {
		b.SetLoc(graph.V(i), geom.Point{X: 0.1 + 0.01*float64(i), Y: 0.1})
		b.SetLoc(graph.V(i+4), geom.Point{X: 0.9, Y: 0.9 - 0.01*float64(i)})
	}
	b.SetLoc(8, geom.Point{X: 0.12, Y: 0.11})
	g := b.Build()

	s := NewSearcherWithStructure(g, StructureKTruss)
	res, err := s.Exact(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !membersEqual(res.Members, 0, 1, 2, 3) {
		t.Fatalf("4-truss SAC = %v, want the near clique", res.Members)
	}
	// Approximations agree on this clean instance.
	for _, run := range []func() (*Result, error){
		func() (*Result, error) { return s.AppInc(0, 4) },
		func() (*Result, error) { return s.AppFast(0, 4, 0) },
		func() (*Result, error) { return s.AppAcc(0, 4, 0.5) },
		func() (*Result, error) { return s.ExactPlus(0, 4, 0.3) },
	} {
		r, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if !membersEqual(r.Members, 0, 1, 2, 3) {
			t.Fatalf("truss approx = %v, want the near clique", r.Members)
		}
	}
	// No 5-truss exists.
	if _, err := s.Exact(0, 5); !errors.Is(err, ErrNoCommunity) {
		t.Fatalf("5-truss err = %v", err)
	}
	// k=2 with truss metric: nearest-neighbor pair.
	r, err := s.Exact(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Members) != 2 {
		t.Fatalf("truss k=2 = %v", r.Members)
	}
}

func TestAppAccDegenerateColocated(t *testing.T) {
	// A triangle whose vertices share one location: γ = 0, optimal trivially.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	for v := 0; v < 3; v++ {
		b.SetLoc(graph.V(v), geom.Point{X: 0.5, Y: 0.5})
	}
	g := b.Build()
	s := NewSearcher(g)
	for _, run := range []func() (*Result, error){
		func() (*Result, error) { return s.AppAcc(0, 2, 0.5) },
		func() (*Result, error) { return s.ExactPlus(0, 2, 0.5) },
		func() (*Result, error) { return s.Exact(0, 2) },
	} {
		res, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Radius() > 1e-9 {
			t.Fatalf("degenerate radius = %v", res.Radius())
		}
		if len(res.Members) != 3 {
			t.Fatalf("degenerate members = %v", res.Members)
		}
	}
}

func BenchmarkAppFastClustered(b *testing.B) {
	g := clusteredGraph(3, 20, 12, 200)
	s := NewSearcher(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.AppFast(0, 4, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactPlusClustered(b *testing.B) {
	g := clusteredGraph(3, 20, 12, 200)
	s := NewSearcher(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ExactPlus(0, 4, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}
