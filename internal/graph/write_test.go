package graph

import (
	"math"
	"testing"

	"sacsearch/internal/geom"
)

// TestWriteCheckAndApply: Check refuses what no graph of n vertices can
// apply — an unknown kind, an id outside [0, n) on either end, a non-finite
// coordinate — and Apply refuses the same writes without touching the graph,
// while a self-loop or a re-insert passes Check and changes nothing.
func TestWriteCheckAndApply(t *testing.T) {
	g, _ := randomGraphEdges(10, 20, 4)
	bad := []Write{
		{},
		{Kind: WriteRemoveEdge + 1, V: 1, W: 2},
		{Kind: WriteCheckin, V: 10, Loc: geom.Point{X: 0.5, Y: 0.5}},
		{Kind: WriteCheckin, V: -1},
		{Kind: WriteCheckin, V: 3, Loc: geom.Point{X: math.NaN(), Y: 0}},
		{Kind: WriteCheckin, V: 3, Loc: geom.Point{X: 0, Y: math.Inf(-1)}},
		{Kind: WriteAddEdge, V: 0, W: 10},
		{Kind: WriteRemoveEdge, V: -1, W: 2},
	}
	for _, w := range bad {
		if err := w.Check(10); err == nil {
			t.Errorf("Check(%+v) = nil, want an error", w)
		}
		if changed, err := g.Apply(w); err == nil || changed || g.Seq() != 0 {
			t.Errorf("Apply(%+v) = %v, %v at seq %d, want a refusal", w, changed, err, g.Seq())
		}
	}

	var u, v V = 0, g.Neighbors(0)[0]
	for _, tc := range []struct {
		w       Write
		changed bool
	}{
		{Write{Kind: WriteAddEdge, V: 2, W: 2}, false},
		{Write{Kind: WriteAddEdge, V: u, W: v}, false},
		{Write{Kind: WriteRemoveEdge, V: u, W: v}, true},
		{Write{Kind: WriteRemoveEdge, V: v, W: u}, false},
		{Write{Kind: WriteAddEdge, V: v, W: u}, true},
		{Write{Kind: WriteCheckin, V: 9, Loc: g.Loc(9)}, true},
	} {
		before := g.Seq()
		changed, err := g.Apply(tc.w)
		if err != nil || changed != tc.changed {
			t.Fatalf("Apply(%+v) = %v, %v; want %v", tc.w, changed, err, tc.changed)
		}
		if got, _ := g.MutationsSince(before, nil); changed != (len(got) == 1 && got[0] == tc.w) {
			t.Fatalf("Apply(%+v) journaled %v", tc.w, got)
		}
	}
}
