package core

import (
	"errors"
	"math"
	"testing"

	"sacsearch/internal/graph"
)

func TestDiameterOf(t *testing.T) {
	g := figure3()
	if d := DiameterOf(g, []graph.V{vQ}); d != 0 {
		t.Fatalf("single-vertex diameter = %v, want 0", d)
	}
	if d := DiameterOf(g, nil); d != 0 {
		t.Fatalf("empty diameter = %v, want 0", d)
	}
	// |Q,C| = 3 (Q=(3,2), C=(3,5)).
	if d := DiameterOf(g, []graph.V{vQ, vC}); math.Abs(d-3) > 1e-12 {
		t.Fatalf("pair diameter = %v, want 3", d)
	}
	// {Q,C,D}: pairwise √5, 3, √5 → diameter 3.
	if d := DiameterOf(g, []graph.V{vQ, vC, vD}); math.Abs(d-3) > 1e-12 {
		t.Fatalf("triple diameter = %v, want 3", d)
	}
}

func TestMinDiamPaperExample(t *testing.T) {
	// Figure 3, q=Q, k=2. Feasible communities: {Q,A,B} (diameter |A,B| =
	// √13 ≈ 3.606), {Q,C,D} (diameter |Q,C| = 3), and supersets. The
	// minimum-diameter community is {Q,C,D}.
	g := figure3()
	s := NewSearcher(g)

	brute, err := s.MinDiamBrute(vQ, 2)
	if err != nil {
		t.Fatalf("brute: %v", err)
	}
	if !membersEqual(brute.Members, vQ, vC, vD) {
		t.Fatalf("brute members = %v, want {Q,C,D}", brute.Members)
	}
	if math.Abs(brute.Delta-3) > 1e-9 {
		t.Fatalf("brute diameter = %v, want 3", brute.Delta)
	}

	two, err := s.MinDiam2Approx(vQ, 2)
	if err != nil {
		t.Fatalf("2-approx: %v", err)
	}
	validateCommunity(t, g, two, vQ, 2)
	if two.Delta > 2*brute.Delta+1e-9 {
		t.Fatalf("2-approx diameter %v exceeds 2×%v", two.Delta, brute.Delta)
	}

	lens, err := s.MinDiamLens(vQ, 2)
	if err != nil {
		t.Fatalf("lens: %v", err)
	}
	validateCommunity(t, g, lens, vQ, 2)
	if lens.Delta > math.Sqrt(3)*brute.Delta+1e-9 {
		t.Fatalf("lens diameter %v exceeds √3×%v", lens.Delta, brute.Delta)
	}
	// On this fixture the lens refinement should find the optimum exactly.
	if math.Abs(lens.Delta-3) > 1e-9 {
		t.Fatalf("lens diameter = %v, want 3", lens.Delta)
	}
}

func TestMinDiamGuaranteesOnRandomGraphs(t *testing.T) {
	sqrt3 := math.Sqrt(3)
	for seed := int64(1); seed <= 8; seed++ {
		// Small clustered graphs with candidate sets under the brute cap.
		g := clusteredGraph(seed, 3, 5, 4)
		s := NewSearcher(g)
		for _, q := range []graph.V{0, 5, 10} {
			for _, k := range []int{2, 3} {
				brute, err := s.MinDiamBrute(q, k)
				if errors.Is(err, ErrNoCommunity) {
					continue
				}
				if err != nil {
					// Candidate set too large for brute force on this seed.
					continue
				}
				opt := brute.Delta

				two, err := s.MinDiam2Approx(q, k)
				if err != nil {
					t.Fatalf("seed %d q=%d k=%d: 2-approx: %v", seed, q, k, err)
				}
				validateCommunity(t, g, two, q, k)
				if opt > 0 && two.Delta/opt > 2+1e-9 {
					t.Fatalf("seed %d q=%d k=%d: 2-approx ratio %v", seed, q, k, two.Delta/opt)
				}
				if opt == 0 && two.Delta > 1e-9 {
					t.Fatalf("seed %d q=%d k=%d: 2-approx diameter %v, optimum 0", seed, q, k, two.Delta)
				}

				lens, err := s.MinDiamLens(q, k)
				if err != nil {
					t.Fatalf("seed %d q=%d k=%d: lens: %v", seed, q, k, err)
				}
				validateCommunity(t, g, lens, q, k)
				if opt > 0 && lens.Delta/opt > sqrt3+1e-9 {
					t.Fatalf("seed %d q=%d k=%d: lens ratio %v > √3", seed, q, k, lens.Delta/opt)
				}
				if lens.Delta > two.Delta+1e-9 {
					t.Fatalf("seed %d q=%d k=%d: lens (%v) worse than its own upper bound (%v)",
						seed, q, k, lens.Delta, two.Delta)
				}
			}
		}
	}
}

func TestMinDiamTrivialAndErrors(t *testing.T) {
	g := figure3()
	s := NewSearcher(g)

	res, err := s.MinDiamLens(vQ, 1)
	if err != nil || len(res.Members) != 2 || res.Delta != DiameterOf(g, res.Members) {
		t.Fatalf("k=1: res=%v err=%v", res, err)
	}
	// The variants take the registry's (q, k) rules: k = 0 is invalid.
	var qe *QueryError
	if _, err := s.MinDiam2Approx(vQ, 0); !errors.As(err, &qe) || qe.Field != "k" {
		t.Fatalf("k=0: err = %v, want a QueryError on k", err)
	}

	if _, err := s.MinDiam2Approx(vF, 3); !errors.Is(err, ErrNoCommunity) {
		t.Fatalf("no 3-core: err = %v", err)
	}
	if _, err := s.MinDiamLens(graph.V(999), 2); err == nil {
		t.Fatal("out-of-range q accepted")
	}
	if _, err := s.MinDiamBrute(graph.V(-1), 2); err == nil {
		t.Fatal("negative q accepted")
	}
}

func TestMinDiamBruteRejectsLargeCandidates(t *testing.T) {
	g := clusteredGraph(5, 4, 8, 40) // one big connected 4-core
	s := NewSearcher(g)
	if _, err := s.MinDiamBrute(0, 2); err == nil || errors.Is(err, ErrNoCommunity) {
		t.Fatalf("brute accepted a large candidate set: %v", err)
	}
}

func TestMinDiamVsMCCObjectives(t *testing.T) {
	// The two objectives can disagree; the diameter of the min-diameter
	// result must never exceed the diameter of the min-MCC result's bound,
	// and both must be feasible communities.
	for seed := int64(11); seed <= 14; seed++ {
		g := clusteredGraph(seed, 5, 6, 8)
		s := NewSearcher(g)
		mcc, err := s.ExactPlus(0, 3, 0.05)
		if errors.Is(err, ErrNoCommunity) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		lens, err := s.MinDiamLens(0, 3)
		if err != nil {
			t.Fatal(err)
		}
		// The min-MCC community has diameter ≤ 2·r; the lens result is a
		// √3-approx of the true diameter optimum Dopt ≤ diam(mcc result).
		mccDiam := DiameterOf(g, mcc.Members)
		if lens.Delta > math.Sqrt(3)*mccDiam+1e-9 {
			t.Fatalf("seed %d: lens diameter %v > √3 × mcc diameter %v", seed, lens.Delta, mccDiam)
		}
	}
}

func BenchmarkMinDiamLens(b *testing.B) {
	g := clusteredGraph(3, 10, 8, 30)
	s := NewSearcher(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.MinDiamLens(0, 4); err != nil && !errors.Is(err, ErrNoCommunity) {
			b.Fatal(err)
		}
	}
}
