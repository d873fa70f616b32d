package sacsearch_test

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"sacsearch"
)

func TestFacadeBatch(t *testing.T) {
	g := buildToy(t)
	s := sacsearch.NewSearcher(g)
	queries := sacsearch.BatchWorkload([]sacsearch.V{0, 3, 0}, 2)
	items := sacsearch.BatchSearch(context.Background(), s, queries, sacsearch.BatchOptions{
		Template: sacsearch.Query{Algo: "exact+"},
		Workers:  2,
	})
	if len(items) != 3 {
		t.Fatalf("items = %d", len(items))
	}
	for i, it := range items {
		if it.Err != nil {
			t.Fatalf("item %d: %v", i, it.Err)
		}
		if !it.Result.Contains(queries[i].Q) {
			t.Fatalf("item %d misses its query vertex", i)
		}
	}
	// The duplicate shares the first answer.
	if items[0].Result != items[2].Result {
		t.Fatal("duplicate host recomputed")
	}
	// Direct equivalence with a single query.
	want, err := s.ExactPlus(0, 2, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if items[0].Result.Size() != want.Size() {
		t.Fatalf("batch %v vs direct %v", items[0].Result.Members, want.Members)
	}
}

func TestFacadeKClique(t *testing.T) {
	g := buildToy(t)
	s := sacsearch.NewSearcherWithStructure(g, sacsearch.StructureKClique)
	// The triangle {0,1,2} is a 3-clique; it is tighter than {0,3,4}.
	res, err := s.ExactPlus(0, 3, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 3 || !res.Contains(1) || !res.Contains(2) {
		t.Fatalf("3-clique members = %v", res.Members)
	}
	// Vertex 5 is in no triangle.
	if _, err := s.AppFast(5, 3, 0.5); !errors.Is(err, sacsearch.ErrNoCommunity) {
		t.Fatalf("err = %v", err)
	}
}

func TestFacadeMinDiam(t *testing.T) {
	g := buildToy(t)
	s := sacsearch.NewSearcher(g)
	two, err := s.MinDiam2Approx(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	lens, err := s.MinDiamLens(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The tight triangle has diameter √2·0.01 ≈ 0.0141.
	wantDiam := math.Hypot(0.01, 0.01)
	if math.Abs(lens.Delta-wantDiam) > 1e-9 {
		t.Fatalf("lens diameter = %v, want %v", lens.Delta, wantDiam)
	}
	if lens.Delta > two.Delta+1e-9 {
		t.Fatalf("lens (%v) worse than 2-approx (%v)", lens.Delta, two.Delta)
	}
	if d := sacsearch.CommunityDiameter(g, lens.Members); math.Abs(d-lens.Delta) > 1e-12 {
		t.Fatalf("CommunityDiameter = %v, Delta = %v", d, lens.Delta)
	}
}

// Property: on generated social graphs, for any seed the exact radius never
// exceeds any approximation's radius, and AppInc respects its factor-2
// guarantee.
func TestFacadeRadiusOrderingProperty(t *testing.T) {
	check := func(seed uint8) bool {
		g := sacsearch.GenerateSocialGraph(400, 2400, int64(seed))
		qs := sacsearch.QueryWorkload(g, 4, 3, int64(seed)+1)
		if len(qs) == 0 {
			return true
		}
		s := sacsearch.NewSearcher(g)
		for _, q := range qs {
			opt, err := s.ExactPlus(q, 4, 1e-3)
			if err != nil {
				continue
			}
			inc, err := s.AppInc(q, 4)
			if err != nil {
				return false
			}
			if inc.Radius() < opt.Radius()-1e-9 {
				return false // an approximation beat the exact optimum
			}
			if opt.Radius() > 0 && inc.Radius()/opt.Radius() > 2+1e-9 {
				return false // AppInc guarantee violated
			}
			acc, err := s.AppAcc(q, 4, 0.5)
			if err != nil {
				return false
			}
			if opt.Radius() > 0 && acc.Radius()/opt.Radius() > 1.5+1e-9 {
				return false // AppAcc guarantee violated
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}

// Property: batch answers are identical to sequential answers for any seed
// and worker count.
func TestFacadeBatchEquivalenceProperty(t *testing.T) {
	check := func(seed uint8, workersRaw uint8) bool {
		workers := int(workersRaw)%4 + 1
		g := sacsearch.GenerateSocialGraph(300, 1800, int64(seed))
		qs := sacsearch.QueryWorkload(g, 4, 5, int64(seed)+7)
		if len(qs) == 0 {
			return true
		}
		s := sacsearch.NewSearcher(g)
		items := sacsearch.BatchSearch(context.Background(), s, sacsearch.BatchWorkload(qs, 4),
			sacsearch.BatchOptions{Workers: workers})
		for i, q := range qs {
			want, err := s.AppFast(q, 4, 0.5)
			if (err != nil) != (items[i].Err != nil) {
				return false
			}
			if err != nil {
				continue
			}
			if items[i].Result.Size() != want.Size() || items[i].Result.Radius() != want.Radius() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 5}); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeDynamicTopology exercises the public dynamic-topology surface:
// edge churn through the Searcher, churn-aware replay, and the epoch
// accessors.
func TestFacadeDynamicTopology(t *testing.T) {
	g := sacsearch.GenerateSocialGraph(600, 3600, 12)
	s := sacsearch.NewSearcher(g)
	epoch := g.TopoEpoch()
	churn := sacsearch.GenerateEdgeChurn(g, 60, 13)
	if len(churn) != 60 {
		t.Fatalf("churn events = %d", len(churn))
	}
	checkins := sacsearch.GenerateCheckins(g, 14)
	movers := sacsearch.SelectMovers(g, checkins, 5, 4)
	if len(movers) == 0 {
		t.Skip("no movers in fixture")
	}
	search := func(q sacsearch.V, k int) ([]sacsearch.V, sacsearch.Circle, error) {
		res, err := s.AppFast(q, k, 0.5)
		if err != nil {
			return nil, sacsearch.Circle{}, err
		}
		return res.Members, res.MCC, nil
	}
	timelines, err := sacsearch.ReplayWithEdges(context.Background(), g, checkins, churn, movers, 450, 2, search, sacsearch.ApplyEdgesVia(s))
	if err != nil {
		t.Fatal(err)
	}
	if g.TopoEpoch() == epoch {
		t.Fatal("replay applied no topology changes")
	}
	total := 0
	for _, snaps := range timelines {
		total += len(snaps)
	}
	if total == 0 {
		t.Fatal("no snapshots recorded")
	}
	// Replayed searcher agrees with one built fresh on the final state.
	fresh := sacsearch.NewSearcher(g)
	for _, q := range movers {
		rw, errW := s.AppFast(q, 2, 0.5)
		rc, errC := fresh.AppFast(q, 2, 0.5)
		if (errW == nil) != (errC == nil) {
			t.Fatalf("q=%d: replayed err %v, fresh err %v", q, errW, errC)
		}
		if errW == nil && rw.MCC != rc.MCC {
			t.Fatalf("q=%d: replayed MCC %+v != fresh %+v", q, rw.MCC, rc.MCC)
		}
	}
}
