package graph

import (
	"testing"

	"sacsearch/internal/geom"
)

func freezeTestGraph() *Graph {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(2, 3)
	for v := V(0); v < 4; v++ {
		b.SetLoc(v, geom.Point{X: float64(v) * 0.1, Y: 0.5})
	}
	return b.Build()
}

// TestFreeze pins the frozen-view contract snapshot publication relies on:
// reads keep working, every mutator panics, and Clone yields a mutable copy
// that diverges without touching the frozen original.
func TestFreeze(t *testing.T) {
	g := freezeTestGraph()
	if g.Frozen() {
		t.Fatal("fresh graph frozen")
	}
	g.Freeze()
	if !g.Frozen() {
		t.Fatal("Freeze did not stick")
	}
	// Reads are unaffected.
	if g.NumEdges() != 4 || g.Degree(2) != 3 || !g.HasEdge(0, 1) {
		t.Fatalf("frozen reads broken: edges=%d deg2=%d", g.NumEdges(), g.Degree(2))
	}

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s on a frozen graph did not panic", name)
			}
		}()
		f()
	}
	mustPanic("SetLoc", func() { g.SetLoc(0, geom.Point{X: 0.9, Y: 0.9}) })
	mustPanic("AddEdge", func() { g.AddEdge(0, 3) })
	mustPanic("RemoveEdge", func() { g.RemoveEdge(0, 1) })

	// Clone is mutable and diverges alone.
	c := g.Clone()
	if c.Frozen() {
		t.Fatal("clone of a frozen graph is frozen")
	}
	if !c.AddEdge(0, 3) {
		t.Fatal("clone AddEdge failed")
	}
	c.SetLoc(1, geom.Point{X: 0.9, Y: 0.9})
	if g.HasEdge(0, 3) {
		t.Fatal("frozen original saw the clone's edge")
	}
	if g.Loc(1).X == 0.9 {
		t.Fatal("frozen original saw the clone's location")
	}
}
