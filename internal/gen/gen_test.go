package gen

import (
	"math"
	"sort"
	"testing"

	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
)

func TestPowerLawGraphSize(t *testing.T) {
	b := PowerLawGraph(5000, 25000, 1)
	g := b.Build()
	if g.NumVertices() != 5000 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	m := g.NumEdges()
	if m < 20000 || m > 30000 {
		t.Fatalf("m = %d, want ≈25000", m)
	}
}

func TestPowerLawGraphConnected(t *testing.T) {
	g := PowerLawGraph(2000, 8000, 2).Build()
	all := func(graph.V) bool { return true }
	if reached := graph.BFSFrom(g, 0, all, graph.NewMarker(g.NumVertices()), nil); len(reached) != g.NumVertices() {
		t.Fatalf("vertex 0 reaches %d of %d vertices (preferential attachment is connected)", len(reached), g.NumVertices())
	}
}

func TestPowerLawDegreeSkew(t *testing.T) {
	g := PowerLawGraph(10000, 50000, 3).Build()
	degs := make([]int, g.NumVertices())
	for v := range degs {
		degs[v] = g.Degree(graph.V(v))
	}
	sort.Sort(sort.Reverse(sort.IntSlice(degs)))
	// Heavy tail: the top vertex should dwarf the median.
	median := degs[len(degs)/2]
	if degs[0] < 5*median {
		t.Fatalf("max degree %d vs median %d: no heavy tail", degs[0], median)
	}
	// Skew: top 1%% of vertices should hold a disproportionate share.
	top := 0
	for _, d := range degs[:len(degs)/100] {
		top += d
	}
	total := 0
	for _, d := range degs {
		total += d
	}
	if float64(top) < 0.05*float64(total) {
		t.Fatalf("top 1%% holds only %d of %d endpoints", top, total)
	}
}

func TestPowerLawGraphDeterministic(t *testing.T) {
	a := PowerLawGraph(500, 2000, 7).Build()
	b := PowerLawGraph(500, 2000, 7).Build()
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("not deterministic")
	}
	for v := 0; v < a.NumVertices(); v++ {
		na, nb := a.Neighbors(graph.V(v)), b.Neighbors(graph.V(v))
		if len(na) != len(nb) {
			t.Fatalf("vertex %d degree differs", v)
		}
	}
}

func TestPowerLawTinyInputs(t *testing.T) {
	if g := PowerLawGraph(0, 0, 1).Build(); g.NumVertices() != 0 {
		t.Fatal("n=0 broken")
	}
	if g := PowerLawGraph(1, 5, 1).Build(); g.NumEdges() != 0 {
		t.Fatal("n=1 should have no edges")
	}
	if g := PowerLawGraph(2, 5, 1).Build(); g.NumEdges() != 1 {
		t.Fatalf("n=2 edges = %d", g.NumEdges())
	}
}

func TestPlaceSpatial(t *testing.T) {
	b := PowerLawGraph(3000, 12000, 11)
	PlaceSpatial(b, DefaultDistMean, DefaultDistSigma, 12)
	g := b.Build()
	// Everyone inside the unit square.
	for v := 0; v < g.NumVertices(); v++ {
		p := g.Loc(graph.V(v))
		if p.X < 0 || p.X > 1 || p.Y < 0 || p.Y > 1 {
			t.Fatalf("vertex %d at %v outside unit square", v, p)
		}
	}
	// Spatial homophily: mean distance between adjacent vertices must be
	// far below the ~0.52 expectation of independent uniform points.
	sum, cnt := 0.0, 0
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(graph.V(v)) {
			if graph.V(v) < u {
				sum += g.Dist(graph.V(v), u)
				cnt++
			}
		}
	}
	mean := sum / float64(cnt)
	if mean > 0.35 {
		t.Fatalf("mean neighbor distance %v: no spatial correlation", mean)
	}
	if mean < 0.01 {
		t.Fatalf("mean neighbor distance %v suspiciously tight", mean)
	}
}

func TestPlaceSpatialCoversComponents(t *testing.T) {
	// Two disconnected cliques: both must receive locations.
	b := graph.NewBuilder(8)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.AddEdge(graph.V(i), graph.V(j))
			b.AddEdge(graph.V(i+4), graph.V(j+4))
		}
	}
	PlaceSpatial(b, 0.09, 0.16, 3)
	for v := 0; v < 8; v++ {
		if !b.HasLoc(graph.V(v)) {
			t.Fatalf("vertex %d unplaced", v)
		}
	}
}

func TestCheckins(t *testing.T) {
	b := PowerLawGraph(200, 800, 21)
	PlaceSpatial(b, DefaultDistMean, DefaultDistSigma, 22)
	g := b.Build()
	cfg := DefaultCheckinConfig()
	cs := Checkins(g, cfg, 23)
	if len(cs) < 200 {
		t.Fatalf("only %d check-ins", len(cs))
	}
	// Sorted by time; all inside the square and the time window.
	for i, c := range cs {
		if i > 0 && cs[i-1].Time > c.Time {
			t.Fatal("check-ins not time sorted")
		}
		if c.Time < 0 || c.Time > cfg.Days {
			t.Fatalf("time %v out of range", c.Time)
		}
		if c.Loc.X < 0 || c.Loc.X > 1 || c.Loc.Y < 0 || c.Loc.Y > 1 {
			t.Fatalf("check-in outside square: %v", c.Loc)
		}
	}
	// Every user checked in at least once.
	seen := make([]bool, g.NumVertices())
	for _, c := range cs {
		seen[c.User] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("user %d has no check-ins", v)
		}
	}
}

func TestTravelDistance(t *testing.T) {
	cs := []Checkin{
		{User: 0, Time: 1, Loc: pt(0, 0)},
		{User: 0, Time: 2, Loc: pt(0.3, 0.4)}, // +0.5
		{User: 0, Time: 3, Loc: pt(0.3, 0.4)}, // +0
		{User: 1, Time: 1, Loc: pt(1, 1)},     // single check-in: 0
	}
	d := TravelDistance(cs, 2)
	if math.Abs(d[0]-0.5) > 1e-12 {
		t.Fatalf("d[0] = %v", d[0])
	}
	if d[1] != 0 {
		t.Fatalf("d[1] = %v", d[1])
	}
}

func TestSelectMovers(t *testing.T) {
	// Star graph: center has degree 5, leaves degree 1.
	b := graph.NewBuilder(6)
	for i := 1; i < 6; i++ {
		b.AddEdge(0, graph.V(i))
	}
	g := b.Build()
	cs := []Checkin{
		{User: 1, Time: 0, Loc: pt(0, 0)},
		{User: 1, Time: 1, Loc: pt(1, 1)}, // longest travel but degree 1
		{User: 0, Time: 0, Loc: pt(0, 0)},
		{User: 0, Time: 1, Loc: pt(0.1, 0)},
	}
	movers := SelectMovers(g, cs, 3, 10)
	if len(movers) != 1 || movers[0] != 0 {
		t.Fatalf("movers = %v, want just the center", movers)
	}
	// Lower friend bar admits the leaf, ranked first by distance.
	movers = SelectMovers(g, cs, 1, 10)
	if len(movers) != 6 || movers[0] != 1 {
		t.Fatalf("movers = %v, want leaf 1 first of 6", movers)
	}
	// Count cap.
	movers = SelectMovers(g, cs, 1, 2)
	if len(movers) != 2 {
		t.Fatalf("cap broken: %v", movers)
	}
}

// TestSelectMoversCounts: the count bounds the selection from both sides —
// a count ≤ 0 asks for nobody, one past the eligible set gets all of it.
func TestSelectMoversCounts(t *testing.T) {
	b := graph.NewBuilder(4)
	for i := 1; i < 4; i++ {
		b.AddEdge(0, graph.V(i))
	}
	g := b.Build()
	cs := []Checkin{{User: 0, Time: 0, Loc: pt(0, 0)}, {User: 0, Time: 1, Loc: pt(0.5, 0)}}
	for _, tc := range []struct{ count, want int }{
		{-1, 0}, {0, 0}, {1, 1}, {4, 4}, {100, 4},
	} {
		if got := SelectMovers(g, cs, 1, tc.count); len(got) != tc.want {
			t.Errorf("count %d: got %v, want %d movers", tc.count, got, tc.want)
		}
	}
}

func pt(x, y float64) geom.Point { return geom.Point{X: x, Y: y} }

func TestEdgeChurn(t *testing.T) {
	b := SocialGraph(400, 2400, 5)
	PlaceSpatial(b, DefaultDistMean, DefaultDistSigma, 6)
	g := b.Build()
	cfg := DefaultEdgeChurnConfig()
	cfg.Events = 300
	events := EdgeChurn(g, cfg, 9)
	if len(events) != cfg.Events {
		t.Fatalf("events = %d, want %d", len(events), cfg.Events)
	}
	inserts := 0
	for i, e := range events {
		if i > 0 && e.Time < events[i-1].Time {
			t.Fatalf("events not time sorted at %d", i)
		}
		if e.Time < 0 || e.Time > cfg.Days {
			t.Fatalf("event %d outside the stream window: %v", i, e.Time)
		}
		if e.U == e.V {
			t.Fatalf("event %d is a self-loop", i)
		}
		if e.Insert {
			inserts++
			if g.HasEdge(e.U, e.V) {
				t.Fatalf("insert event %d proposes an existing edge (%d,%d)", i, e.U, e.V)
			}
		} else if !g.HasEdge(e.U, e.V) {
			t.Fatalf("delete event %d references a missing edge (%d,%d)", i, e.U, e.V)
		}
	}
	frac := float64(inserts) / float64(len(events))
	if frac < cfg.InsertFrac-0.15 || frac > cfg.InsertFrac+0.15 {
		t.Fatalf("insert fraction %.2f far from configured %.2f", frac, cfg.InsertFrac)
	}
	// Replayable: every event applies cleanly or no-ops against a live graph.
	for _, e := range events {
		if e.Insert {
			g.AddEdge(e.U, e.V)
		} else {
			g.RemoveEdge(e.U, e.V)
		}
	}
}
