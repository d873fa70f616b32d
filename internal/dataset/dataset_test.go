package dataset

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"sacsearch/internal/graph"
	"sacsearch/internal/kcore"
)

func TestPresetByName(t *testing.T) {
	p, err := PresetByName("Brightkite")
	if err != nil {
		t.Fatal(err)
	}
	if p.Vertices != 51406 || p.Edges != 197167 {
		t.Fatalf("brightkite preset = %+v", p)
	}
	if _, err := PresetByName("nope"); err == nil {
		t.Fatal("unknown preset accepted")
	}
	if Names() == "" {
		t.Fatal("Names empty")
	}
}

func TestLoadScaled(t *testing.T) {
	scale := 0.05
	d, err := Load("brightkite", scale)
	if err != nil {
		t.Fatal(err)
	}
	g := d.Graph
	wantN := int(float64(51406) * scale)
	if g.NumVertices() != wantN {
		t.Fatalf("n = %d, want %d", g.NumVertices(), wantN)
	}
	// Average degree within 25% of the published 7.67.
	if ad := g.AvgDegree(); math.Abs(ad-7.67) > 0.25*7.67 {
		t.Fatalf("avg degree = %v, want ≈7.67", ad)
	}
	// Locations in the unit square.
	for v := 0; v < g.NumVertices(); v += 97 {
		p := g.Loc(graph.V(v))
		if p.X < 0 || p.X > 1 || p.Y < 0 || p.Y > 1 {
			t.Fatalf("location %v outside unit square", p)
		}
	}
	if d.Scale != 0.05 {
		t.Fatalf("scale = %v", d.Scale)
	}
}

func TestLoadDeterministic(t *testing.T) {
	a, err := Load("syn1", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Load("syn1", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Graph.NumEdges() != b.Graph.NumEdges() {
		t.Fatal("not deterministic")
	}
	for v := 0; v < a.Graph.NumVertices(); v += 131 {
		if a.Graph.Loc(graph.V(v)) != b.Graph.Loc(graph.V(v)) {
			t.Fatal("locations not deterministic")
		}
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load("nope", 1); err == nil {
		t.Fatal("unknown name accepted")
	}
	if _, err := Load("syn1", 0); err == nil {
		t.Fatal("zero scale accepted")
	}
	if _, err := Load("syn1", 1.5); err == nil {
		t.Fatal("scale > 1 accepted")
	}
}

func TestSubgraphPercent(t *testing.T) {
	d, err := Load("syn1", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := SubgraphPercent(d, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantN := d.Graph.NumVertices() * 40 / 100
	if sub.Graph.NumVertices() != wantN {
		t.Fatalf("n = %d, want %d", sub.Graph.NumVertices(), wantN)
	}
	if sub.Graph.NumEdges() >= d.Graph.NumEdges() {
		t.Fatal("induced subgraph kept too many edges")
	}
	// 100% is a clone.
	full, err := SubgraphPercent(d, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if full.Graph.NumVertices() != d.Graph.NumVertices() || full.Graph.NumEdges() != d.Graph.NumEdges() {
		t.Fatal("100% subgraph differs")
	}
	if _, err := SubgraphPercent(d, 0, 1); err == nil {
		t.Fatal("0% accepted")
	}
	if _, err := SubgraphPercent(d, 150, 1); err == nil {
		t.Fatal("150% accepted")
	}
}

func TestQueryWorkload(t *testing.T) {
	d, err := Load("brightkite", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	qs := QueryWorkload(d.Graph, 4, 50, 7)
	if len(qs) != 50 {
		t.Fatalf("got %d queries", len(qs))
	}
	cores := kcore.Decompose(d.Graph)
	for _, q := range qs {
		if cores[q] < 4 {
			t.Fatalf("query %d has core %d < 4", q, cores[q])
		}
	}
	// Deterministic.
	qs2 := QueryWorkload(d.Graph, 4, 50, 7)
	for i := range qs {
		if qs[i] != qs2[i] {
			t.Fatal("workload not deterministic")
		}
	}
	// Different seed differs (overwhelmingly likely).
	qs3 := QueryWorkload(d.Graph, 4, 50, 8)
	same := true
	for i := range qs {
		if qs[i] != qs3[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds gave identical workloads")
	}
}

// TestQueryWorkloadCounts: the count bounds the workload from both sides —
// a count ≤ 0 asks for nothing, one past the eligible set gets all of it.
func TestQueryWorkloadCounts(t *testing.T) {
	// A 5-clique (core number 4) with a pendant path (core 1).
	b := graph.NewBuilder(7)
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			b.AddEdge(graph.V(u), graph.V(v))
		}
	}
	b.AddEdge(4, 5)
	b.AddEdge(5, 6)
	g := b.Build()
	for _, tc := range []struct{ count, want int }{
		{-1, 0}, {0, 0}, {2, 2}, {5, 5}, {100, 5},
	} {
		if got := QueryWorkload(g, 4, tc.count, 1); len(got) != tc.want {
			t.Errorf("count %d: got %v, want %d queries", tc.count, got, tc.want)
		}
	}
}

func TestSaveOpenRoundTrip(t *testing.T) {
	dir, err := os.MkdirTemp("", "sacds")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	d, err := Load("syn1", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := Open(dir, "syn1", d.Graph.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	if got.Graph.NumEdges() != d.Graph.NumEdges() {
		t.Fatalf("edges %d vs %d", got.Graph.NumEdges(), d.Graph.NumEdges())
	}
	if got.Graph.Loc(0).Dist(d.Graph.Loc(0)) > 1e-6 {
		t.Fatal("location drift after round trip")
	}
}

func TestSaveOpenBinaryRoundTrip(t *testing.T) {
	dir, err := os.MkdirTemp("", "sacdsbin")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	d, err := Load("syn1", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SaveBinary(dir); err != nil {
		t.Fatal(err)
	}
	got, err := LoadOrRead(filepath.Join(dir, "syn1.sacg"), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "syn1" {
		t.Fatalf("dataset read from syn1.sacg is named %q", got.Name)
	}
	if got.Graph.NumVertices() != d.Graph.NumVertices() || got.Graph.NumEdges() != d.Graph.NumEdges() {
		t.Fatalf("size mismatch: (%d,%d) vs (%d,%d)",
			got.Graph.NumVertices(), got.Graph.NumEdges(), d.Graph.NumVertices(), d.Graph.NumEdges())
	}
	// Binary is bit-exact.
	for v := 0; v < d.Graph.NumVertices(); v++ {
		if got.Graph.Loc(int32(v)) != d.Graph.Loc(int32(v)) {
			t.Fatalf("vertex %d: location drift", v)
		}
	}
	// A missing file fails cleanly.
	if _, err := LoadOrRead(filepath.Join(dir, "nope.sacg"), "", 0); err == nil {
		t.Fatal("missing binary dataset opened")
	}
	// No path: the preset.
	if preset, err := LoadOrRead("", "syn1", 0.02); err != nil || preset.Graph.NumVertices() != d.Graph.NumVertices() {
		t.Fatalf("LoadOrRead without a path did not build the preset: %v", err)
	}
}

func TestTable4Shape(t *testing.T) {
	// Every preset generated at small scale lands near its published
	// average degree — the Table 4 reproduction at reduced n.
	for _, p := range Presets {
		scale := 2000.0 / float64(p.Vertices)
		if scale > 1 {
			scale = 1
		}
		d, err := Load(p.Name, scale)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		ad := d.Graph.AvgDegree()
		if math.Abs(ad-p.AvgDeg) > 0.3*p.AvgDeg {
			t.Fatalf("%s: avg degree %v, published %v", p.Name, ad, p.AvgDeg)
		}
	}
}
