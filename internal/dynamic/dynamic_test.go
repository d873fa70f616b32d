package dynamic

import (
	"context"
	"errors"
	"math"
	"sort"
	"strings"
	"testing"

	"sacsearch/internal/core"
	"sacsearch/internal/gen"
	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
)

// movingWorld builds a graph where the query user 0 sits between two
// triangles: {0,1,2} near location L1 and {0,3,4} near L2. When user 0 is at
// L1 its SAC is the first triangle; at L2, the second.
func movingWorld() *graph.Graph {
	b := graph.NewBuilder(5)
	edges := [][2]graph.V{{0, 1}, {0, 2}, {1, 2}, {0, 3}, {0, 4}, {3, 4}}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	b.SetLoc(0, geom.Point{X: 0.1, Y: 0.1})
	b.SetLoc(1, geom.Point{X: 0.1, Y: 0.12})
	b.SetLoc(2, geom.Point{X: 0.12, Y: 0.1})
	b.SetLoc(3, geom.Point{X: 0.9, Y: 0.9})
	b.SetLoc(4, geom.Point{X: 0.9, Y: 0.88})
	return b.Build()
}

func searchWith(s *core.Searcher) SearchFunc {
	return func(q graph.V, k int) ([]graph.V, geom.Circle, error) {
		res, err := s.ExactPlus(q, k, 0.2)
		if err != nil {
			return nil, geom.Circle{}, err
		}
		return res.Members, res.MCC, nil
	}
}

func TestReplayMovingUser(t *testing.T) {
	g := movingWorld()
	s := core.NewSearcher(g)
	checkins := []gen.Checkin{
		{User: 0, Time: 0.5, Loc: geom.Point{X: 0.1, Y: 0.1}},  // warm-up
		{User: 0, Time: 1.0, Loc: geom.Point{X: 0.11, Y: 0.1}}, // near triangle 1
		{User: 0, Time: 2.0, Loc: geom.Point{X: 0.89, Y: 0.9}}, // moved to triangle 2
	}
	timelines, err := ReplayWithEdges(context.Background(), g, checkins, nil, []graph.V{0}, 0.9, 2, searchWith(s), nil)
	if err != nil {
		t.Fatal(err)
	}
	snaps := timelines[0]
	if len(snaps) != 2 {
		t.Fatalf("got %d snapshots, want 2", len(snaps))
	}
	// First snapshot: community {0,1,2}; second: {0,3,4}.
	want1 := map[graph.V]bool{0: true, 1: true, 2: true}
	for _, v := range snaps[0].Members {
		if !want1[v] {
			t.Fatalf("snapshot 1 = %v", snaps[0].Members)
		}
	}
	want2 := map[graph.V]bool{0: true, 3: true, 4: true}
	for _, v := range snaps[1].Members {
		if !want2[v] {
			t.Fatalf("snapshot 2 = %v", snaps[1].Members)
		}
	}
	// The graph's final state reflects the last check-in.
	if g.Loc(0).Dist(geom.Point{X: 0.89, Y: 0.9}) > 1e-12 {
		t.Fatal("final location not applied")
	}
}

func TestReplayRejectsUnsorted(t *testing.T) {
	g := movingWorld()
	s := core.NewSearcher(g)
	checkins := []gen.Checkin{
		{User: 0, Time: 2, Loc: geom.Point{X: 0.1, Y: 0.1}},
		{User: 0, Time: 1, Loc: geom.Point{X: 0.2, Y: 0.1}},
	}
	if _, err := ReplayWithEdges(context.Background(), g, checkins, nil, []graph.V{0}, 0, 2, searchWith(s), nil); err == nil {
		t.Fatal("unsorted stream accepted")
	}
}

func TestReplaySkipsInfeasible(t *testing.T) {
	// Vertex 0 in a path cannot form a 2-core: snapshots must be skipped,
	// not error out.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	s := core.NewSearcher(g)
	checkins := []gen.Checkin{{User: 0, Time: 1, Loc: geom.Point{X: 0.5, Y: 0.5}}}
	timelines, err := ReplayWithEdges(context.Background(), g, checkins, nil, []graph.V{0}, 0, 2, searchWith(s), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(timelines[0]) != 0 {
		t.Fatalf("expected no snapshots, got %v", timelines[0])
	}
}

func TestDecayComputation(t *testing.T) {
	// Hand-built timeline: identical communities 1 day apart, disjoint ones
	// 10 days apart.
	mcc1 := geom.Circle{C: geom.Point{X: 0.1, Y: 0.1}, R: 0.05}
	mcc2 := geom.Circle{C: geom.Point{X: 0.9, Y: 0.9}, R: 0.05}
	timelines := map[graph.V][]Snapshot{
		0: {
			{Time: 0, Members: []graph.V{0, 1, 2}, MCC: mcc1},
			{Time: 1, Members: []graph.V{0, 1, 2}, MCC: mcc1},
			{Time: 11, Members: []graph.V{0, 8, 9}, MCC: mcc2},
		},
	}
	points := Decay(timelines, []float64{0.5, 5})
	if len(points) != 2 {
		t.Fatalf("points = %v", points)
	}
	// η = 0.5: pairs (0,1) CJS=1 and (1,11) CJS=1/5. Average 0.6.
	p := points[0]
	if p.Pairs != 2 || math.Abs(p.CJS-0.6) > 1e-9 {
		t.Fatalf("η=0.5 point = %+v", p)
	}
	// η = 5: only pair (0, 11): CJS = 1/5, CAO = 0.
	p = points[1]
	if p.Pairs != 1 || math.Abs(p.CJS-0.2) > 1e-9 || p.CAO != 0 {
		t.Fatalf("η=5 point = %+v", p)
	}
}

// End-to-end miniature of Figure 13: synthetic stream over a clustered
// graph; CJS at small η exceeds CJS at large η.
func TestDecayEndToEnd(t *testing.T) {
	bld := gen.PowerLawGraph(400, 2400, 31)
	gen.PlaceSpatial(bld, gen.DefaultDistMean, gen.DefaultDistSigma, 32)
	g := bld.Build()
	cfg := gen.DefaultCheckinConfig()
	cfg.Days = 60
	cfg.PerUserMean = 8
	checkins := gen.Checkins(g, cfg, 33)
	movers := gen.SelectMovers(g, checkins, 5, 10)
	if len(movers) == 0 {
		t.Skip("no movers on this fixture")
	}
	s := core.NewSearcher(g)
	search := func(q graph.V, k int) ([]graph.V, geom.Circle, error) {
		res, err := s.AppFast(q, k, 0.5)
		if err != nil {
			return nil, geom.Circle{}, err
		}
		return res.Members, res.MCC, nil
	}
	timelines, err := ReplayWithEdges(context.Background(), g, checkins, nil, movers, 10, 3, search, nil)
	if err != nil {
		t.Fatal(err)
	}
	points := Decay(timelines, []float64{0.25, 20})
	if points[0].Pairs == 0 || points[1].Pairs == 0 {
		t.Skipf("insufficient pairs: %+v", points)
	}
	if points[1].CJS > points[0].CJS+0.15 {
		t.Fatalf("CJS did not decay: η=0.25 → %v, η=20 → %v", points[0].CJS, points[1].CJS)
	}
}

// TestReplayPropagatesGenuineErrors pins the error contract: only
// core.ErrNoCommunity snapshots are skipped; any other search failure aborts
// the replay, wrapped with the user and time it happened at.
func TestReplayPropagatesGenuineErrors(t *testing.T) {
	g := movingWorld()
	checkins := []gen.Checkin{
		{User: 0, Time: 1, Loc: geom.Point{X: 0.1, Y: 0.1}},
		{User: 0, Time: 2, Loc: geom.Point{X: 0.1, Y: 0.1}},
	}
	boom := errors.New("searcher exploded")
	calls := 0
	search := func(q graph.V, k int) ([]graph.V, geom.Circle, error) {
		calls++
		if calls == 1 {
			return nil, geom.Circle{}, core.ErrNoCommunity // skipped, not fatal
		}
		return nil, geom.Circle{}, boom
	}
	_, err := ReplayWithEdges(context.Background(), g, checkins, nil, []graph.V{0}, 0, 2, search, nil)
	if err == nil {
		t.Fatal("genuine search error swallowed")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("error %v does not wrap the search failure", err)
	}
	if !strings.Contains(err.Error(), "user 0") || !strings.Contains(err.Error(), "2.000") {
		t.Fatalf("error %q lacks user/time context", err)
	}
	if calls != 2 {
		t.Fatalf("search called %d times, want 2 (ErrNoCommunity must not abort)", calls)
	}
}

// TestReplayWithEdgesChangesCommunities replays friendship churn: deleting
// the {1,2} tie at day 5 breaks user 0's home triangle (the search falls
// back to the far triangle {0,3,4}), and re-inserting it at day 8 restores
// the home community — each snapshot sees the topology of its instant.
func TestReplayWithEdgesChangesCommunities(t *testing.T) {
	g := movingWorld()
	s := core.NewSearcher(g)
	var checkins []gen.Checkin
	for day := 1; day <= 10; day++ {
		checkins = append(checkins, gen.Checkin{User: 0, Time: float64(day), Loc: geom.Point{X: 0.1, Y: 0.1}})
	}
	edges := []gen.EdgeEvent{
		{U: 1, V: 2, Time: 4.5, Insert: false},
		{U: 1, V: 2, Time: 7.5, Insert: true},
	}
	timelines, err := ReplayWithEdges(context.Background(), g, checkins, edges, []graph.V{0}, 0, 2, searchWith(s), ApplyVia(s))
	if err != nil {
		t.Fatal(err)
	}
	snaps := timelines[0]
	if len(snaps) != 10 {
		t.Fatalf("snapshots = %d, want 10", len(snaps))
	}
	wantHome := []graph.V{0, 1, 2}
	wantFar := []graph.V{0, 3, 4}
	for _, sn := range snaps {
		want := wantHome
		if sn.Time > 4.5 && sn.Time < 7.5 {
			want = wantFar
		}
		got := append([]graph.V(nil), sn.Members...)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if len(got) != len(want) {
			t.Fatalf("day %.0f: members %v, want %v", sn.Time, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("day %.0f: members %v, want %v", sn.Time, got, want)
			}
		}
	}
	// The replayed searcher ends bit-identical to one built fresh on the
	// final topology (the edge was restored, so core numbers match too).
	fresh := core.NewSearcher(g)
	for v := 0; v < g.NumVertices(); v++ {
		if s.CoreNumber(graph.V(v)) != fresh.CoreNumber(graph.V(v)) {
			t.Fatalf("core[%d]: replayed %d != fresh %d", v, s.CoreNumber(graph.V(v)), fresh.CoreNumber(graph.V(v)))
		}
	}
}

// TestReplayWithEdgesValidation covers the edge-stream error paths.
func TestReplayWithEdgesValidation(t *testing.T) {
	g := movingWorld()
	s := core.NewSearcher(g)
	checkins := []gen.Checkin{{User: 0, Time: 1, Loc: geom.Point{X: 0.1, Y: 0.1}}}
	edges := []gen.EdgeEvent{{U: 1, V: 2, Time: 0.5}}
	if _, err := ReplayWithEdges(context.Background(), g, checkins, edges, nil, 0, 2, searchWith(s), nil); err == nil {
		t.Fatal("edge events without an apply function accepted")
	}
	unsorted := []gen.EdgeEvent{{U: 1, V: 2, Time: 0.8}, {U: 1, V: 2, Time: 0.2, Insert: true}}
	if _, err := ReplayWithEdges(context.Background(), g, checkins, unsorted, nil, 0, 2, searchWith(s), ApplyVia(s)); err == nil {
		t.Fatal("unsorted edge events accepted")
	}
	bad := []gen.EdgeEvent{{U: 1, V: 99, Time: 0.5, Insert: true}}
	if _, err := ReplayWithEdges(context.Background(), movingWorld(), checkins, bad, nil, 0, 2, searchWith(s), ApplyVia(s)); err == nil {
		t.Fatal("out-of-range edge event accepted")
	}
}

// TestReplayRefusesBadCheckin: a check-in that names a vertex the graph
// lacks, or a location that is not finite, fails the replay before any event
// is applied — it used to panic with an index out of range, or move the
// vertex to NaN and poison every later MCC.
func TestReplayRefusesBadCheckin(t *testing.T) {
	for _, bad := range []gen.Checkin{
		{User: 99, Time: 2, Loc: geom.Point{X: 0.5, Y: 0.5}},
		{User: 1, Time: 2, Loc: geom.Point{X: math.NaN(), Y: 0.5}},
	} {
		g := movingWorld()
		s := core.NewSearcher(g)
		want := g.Clone()
		checkins := []gen.Checkin{{User: 0, Time: 1, Loc: geom.Point{X: 0.1, Y: 0.1}}, bad}
		edges := []gen.EdgeEvent{{U: 1, V: 2, Time: 0.5}}
		if _, err := ReplayWithEdges(context.Background(), g, checkins, edges, nil, 0, 2, searchWith(s), ApplyVia(s)); err == nil {
			t.Fatalf("check-in %+v accepted", bad)
		}
		if g.Seq() != 0 || g.NumEdges() != want.NumEdges() || g.Loc(0) != want.Loc(0) {
			t.Fatalf("a refused replay touched the graph (seq %d)", g.Seq())
		}
	}
}
