package sacsearch_test

import (
	"bytes"
	"testing"

	"sacsearch"
)

// TestSaveLoadGraphRoundTrip pins the facade's persistence pair: a built
// graph survives SaveGraph/LoadGraph bit-exactly, without touching internal
// packages.
func TestSaveLoadGraphRoundTrip(t *testing.T) {
	g := buildToy(t)
	var buf bytes.Buffer
	if err := sacsearch.SaveGraph(&buf, g); err != nil {
		t.Fatalf("SaveGraph: %v", err)
	}
	got, err := sacsearch.LoadGraph(&buf)
	if err != nil {
		t.Fatalf("LoadGraph: %v", err)
	}
	if got.NumVertices() != g.NumVertices() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip: (%d,%d) vs (%d,%d)",
			got.NumVertices(), got.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	for v := 0; v < g.NumVertices(); v++ {
		if got.Loc(sacsearch.V(v)) != g.Loc(sacsearch.V(v)) {
			t.Fatalf("vertex %d location differs", v)
		}
		na, nb := g.Neighbors(sacsearch.V(v)), got.Neighbors(sacsearch.V(v))
		if len(na) != len(nb) {
			t.Fatalf("vertex %d degree differs", v)
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("vertex %d adjacency differs", v)
			}
		}
	}
	// Same answers on both sides: the load is usable, not just structurally
	// equal.
	want, err := sacsearch.NewSearcher(g).AppInc(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	have, err := sacsearch.NewSearcher(got).AppInc(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Members) != len(have.Members) {
		t.Fatalf("answers differ: %v vs %v", want.Members, have.Members)
	}
	// A corrupted stream must fail loudly.
	var buf2 bytes.Buffer
	if err := sacsearch.SaveGraph(&buf2, g); err != nil {
		t.Fatal(err)
	}
	raw := buf2.Bytes()
	raw[len(raw)/2] ^= 0xff
	if _, err := sacsearch.LoadGraph(bytes.NewReader(raw)); err == nil {
		t.Fatal("corrupted graph loaded silently")
	}
}
