package graph

import (
	"slices"
	"testing"

	"sacsearch/internal/geom"
)

// journalScript applies a deterministic mix of moves, inserts and deletes to
// g and returns the records it should have journaled, in order.
func journalScript(g *Graph, steps int, seed int) []Write {
	var want []Write
	n := g.NumVertices()
	for i := 0; i < steps; i++ {
		u, w := V((seed+7*i)%n), V((seed+11*i+3)%n)
		switch i % 3 {
		case 0:
			p := geom.Point{X: float64(i%97) / 97, Y: float64(i%89) / 89}
			g.SetLoc(u, p)
			want = append(want, Write{Kind: WriteCheckin, V: u, Loc: p})
		case 1:
			if g.AddEdge(u, w) {
				want = append(want, Write{Kind: WriteAddEdge, V: u, W: w})
			}
		default:
			if g.RemoveEdge(u, w) {
				want = append(want, Write{Kind: WriteRemoveEdge, V: u, W: w})
			}
		}
	}
	return want
}

// TestJournalRecordsTimeline: Seq counts state-changing mutations only, and
// MutationsSince returns exactly the records between a stamp and now — from
// any stamp the ring still reaches, across wrap-around, appended to dst.
func TestJournalRecordsTimeline(t *testing.T) {
	g, _ := randomGraphEdges(40, 120, 1)
	if g.Seq() != 0 {
		t.Fatalf("fresh graph Seq = %d", g.Seq())
	}
	if got, ok := g.MutationsSince(0, nil); !ok || len(got) != 0 {
		t.Fatalf("empty gap = %v, %v", got, ok)
	}
	want := journalScript(g, 3*journalLen, 5) // laps the ring at least once
	if g.Seq() != uint64(len(want)) || g.Seq() != g.LocEpoch()+g.TopoEpoch() {
		t.Fatalf("Seq = %d after %d recorded mutations (loc %d, topo %d)",
			g.Seq(), len(want), g.LocEpoch(), g.TopoEpoch())
	}
	if len(want) <= journalLen+10 {
		t.Fatalf("script recorded %d mutations; need more than a ring", len(want))
	}
	now := uint64(len(want))
	for _, back := range []uint64{0, 1, 2, 17, journalLen - 1, journalLen} {
		got, ok := g.MutationsSince(now-back, []Write{{Kind: WriteCheckin, V: -1}})
		if !ok {
			t.Fatalf("gap of %d out of reach", back)
		}
		if got[0].V != -1 || !slices.Equal(got[1:], want[now-back:]) {
			t.Fatalf("gap of %d: got %v want %v", back, got[1:], want[now-back:])
		}
	}
	// One past the ring, and far past it.
	for _, back := range []uint64{journalLen + 1, now} {
		if got, ok := g.MutationsSince(now-back, nil); ok || got != nil {
			t.Fatalf("gap of %d answered %d records, want out of reach", back, len(got))
		}
	}
}

// TestJournalFutureStamp: a stamp ahead of the graph is out of reach — the
// case of a pooled worker handed an older snapshot than it last served.
func TestJournalFutureStamp(t *testing.T) {
	g, _ := randomGraphEdges(20, 40, 2)
	old := g.Clone()
	journalScript(g, 9, 1)
	if _, ok := old.MutationsSince(g.Seq(), nil); ok {
		t.Fatalf("stamp %d answered by a graph at %d", g.Seq(), old.Seq())
	}
	if got, ok := g.MutationsSince(old.Seq(), nil); !ok || uint64(len(got)) != g.Seq() {
		t.Fatalf("forward gap: %v, %v", got, ok)
	}
}

// TestJournalCloneCarriesHistory: a clone answers for the history it was cut
// from, continues the timeline on its own, and a frozen clone is untouched
// by whatever the writer does afterwards.
func TestJournalCloneCarriesHistory(t *testing.T) {
	g, _ := randomGraphEdges(30, 80, 3)
	want := journalScript(g, 30, 2)
	frozen := g.Clone()
	frozen.Freeze()
	if frozen.Seq() != g.Seq() {
		t.Fatalf("clone Seq %d != %d", frozen.Seq(), g.Seq())
	}
	got, ok := frozen.MutationsSince(0, nil)
	if !ok || !slices.Equal(got, want) {
		t.Fatalf("clone history %v, %v; want %v", got, ok, want)
	}

	more := journalScript(g, 2*journalLen, 9) // the writer laps its own ring
	again, ok := frozen.MutationsSince(0, nil)
	if !ok || !slices.Equal(again, want) || frozen.Seq() != uint64(len(want)) {
		t.Fatal("frozen clone's journal moved with the writer")
	}
	tail, ok := g.MutationsSince(g.Seq()-5, nil)
	if !ok || !slices.Equal(tail, more[len(more)-5:]) {
		t.Fatalf("writer tail %v, want %v", tail, more[len(more)-5:])
	}

	// A mutable clone continues from the shared stamp on its own branch.
	branch := frozen.Clone()
	branch.SetLoc(1, geom.Point{X: 0.5, Y: 0.5})
	got, ok = branch.MutationsSince(frozen.Seq(), nil)
	if !ok || !slices.Equal(got, []Write{{Kind: WriteCheckin, V: 1, Loc: geom.Point{X: 0.5, Y: 0.5}}}) {
		t.Fatalf("branch gap %v, %v", got, ok)
	}
}
