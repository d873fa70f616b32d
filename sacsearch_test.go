package sacsearch_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"sacsearch"
)

// buildToy returns a 6-vertex graph with a tight triangle around vertex 0
// and a looser one farther away, both feasible for k=2.
func buildToy(t *testing.T) *sacsearch.Graph {
	t.Helper()
	b := sacsearch.NewBuilder(6)
	edges := [][2]sacsearch.V{{0, 1}, {1, 2}, {2, 0}, {0, 3}, {0, 4}, {3, 4}, {4, 5}}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	b.SetLoc(0, sacsearch.Point{X: 0.50, Y: 0.50})
	b.SetLoc(1, sacsearch.Point{X: 0.51, Y: 0.50})
	b.SetLoc(2, sacsearch.Point{X: 0.50, Y: 0.51})
	b.SetLoc(3, sacsearch.Point{X: 0.70, Y: 0.70})
	b.SetLoc(4, sacsearch.Point{X: 0.72, Y: 0.70})
	b.SetLoc(5, sacsearch.Point{X: 0.90, Y: 0.90})
	return b.Build()
}

func TestFacadeSearch(t *testing.T) {
	g := buildToy(t)
	s := sacsearch.NewSearcher(g)
	res, err := s.ExactPlus(0, 2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// The tight triangle {0,1,2} wins.
	if res.Size() != 3 || !res.Contains(1) || !res.Contains(2) {
		t.Fatalf("members = %v", res.Members)
	}
	if res.Radius() > 0.02 {
		t.Fatalf("radius = %v, too large", res.Radius())
	}
	// Approximations stay within their guarantees.
	inc, err := s.AppInc(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Radius() > 2*res.Radius()+1e-9 {
		t.Fatalf("AppInc ratio violated: %v vs %v", inc.Radius(), res.Radius())
	}
	// No community for an impossible k.
	if _, err := s.Exact(5, 2); !errors.Is(err, sacsearch.ErrNoCommunity) {
		t.Fatalf("err = %v", err)
	}
}

func TestFacadeBaselines(t *testing.T) {
	g := buildToy(t)
	b := sacsearch.NewBaselineSearcher(g)
	global := b.Global(0, 2)
	if len(global) == 0 {
		t.Fatal("Global empty")
	}
	p := sacsearch.RunGeoModu(g, 1)
	if p.NumCommunities() == 0 {
		t.Fatal("GeoModu found nothing")
	}
	if got := sacsearch.AvgInternalDegree(g, global); got < 2 {
		t.Fatalf("global avg degree = %v", got)
	}
}

func TestFacadeMetrics(t *testing.T) {
	g := buildToy(t)
	members := []sacsearch.V{0, 1, 2}
	if r := sacsearch.CommunityRadius(g, members); r <= 0 || r > 0.02 {
		t.Fatalf("radius = %v", r)
	}
	if d := sacsearch.CommunityDistPr(g, members, 1); d <= 0 {
		t.Fatalf("distPr = %v", d)
	}
	if got := sacsearch.CJS([]sacsearch.V{1, 2}, []sacsearch.V{2, 3}); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("CJS = %v", got)
	}
}

func TestFacadeDatasetAndWorkload(t *testing.T) {
	ds, err := sacsearch.LoadDataset("syn1", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	qs := sacsearch.QueryWorkload(ds.Graph, 4, 10, 3)
	if len(qs) == 0 {
		t.Fatal("no eligible queries")
	}
	s := sacsearch.NewSearcher(ds.Graph)
	res, err := s.AppFast(qs[0], 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() < 5 {
		t.Fatalf("community too small for k=4: %d", res.Size())
	}
}

func TestFacadeGeneratedGraph(t *testing.T) {
	g := sacsearch.GenerateSocialGraph(800, 4000, 5)
	if g.NumVertices() != 800 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	checkins := sacsearch.GenerateCheckins(g, 6)
	if len(checkins) == 0 {
		t.Fatal("no check-ins")
	}
	movers := sacsearch.SelectMovers(g, checkins, 4, 5)
	if len(movers) == 0 {
		t.Fatal("no movers")
	}
}

func TestFacadeDynamicReplay(t *testing.T) {
	g := sacsearch.GenerateSocialGraph(600, 3600, 9)
	checkins := sacsearch.GenerateCheckins(g, 10)
	movers := sacsearch.SelectMovers(g, checkins, 4, 5)
	s := sacsearch.NewSearcher(g)
	search := func(q sacsearch.V, k int) ([]sacsearch.V, sacsearch.Circle, error) {
		res, err := s.AppFast(q, k, 0.5)
		if err != nil {
			return nil, sacsearch.Circle{}, err
		}
		return res.Members, res.MCC, nil
	}
	timelines, err := sacsearch.ReplayWithEdges(context.Background(), g, checkins, nil, movers, 200, 3, search, nil)
	if err != nil {
		t.Fatal(err)
	}
	points := sacsearch.Decay(timelines, []float64{1, 10})
	if len(points) != 2 {
		t.Fatalf("points = %v", points)
	}
}

func TestFacadeKTruss(t *testing.T) {
	g := buildToy(t)
	s := sacsearch.NewSearcherWithStructure(g, sacsearch.StructureKTruss)
	res, err := s.Exact(0, 3) // triangles are 3-trusses
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 3 {
		t.Fatalf("3-truss SAC = %v", res.Members)
	}
}
