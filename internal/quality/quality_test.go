package quality

import (
	"math"
	"testing"

	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
)

func square(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(4)
	b.SetLoc(0, geom.Point{X: 0, Y: 0})
	b.SetLoc(1, geom.Point{X: 1, Y: 0})
	b.SetLoc(2, geom.Point{X: 1, Y: 1})
	b.SetLoc(3, geom.Point{X: 0, Y: 1})
	return b.Build()
}

func TestRadius(t *testing.T) {
	g := square(t)
	// Unit square MCC radius = √2/2.
	if r := Radius(g, []graph.V{0, 1, 2, 3}); math.Abs(r-math.Sqrt2/2) > 1e-9 {
		t.Fatalf("radius = %v", r)
	}
	if r := Radius(g, []graph.V{0}); r != 0 {
		t.Fatalf("single radius = %v", r)
	}
}

func TestDistPrExact(t *testing.T) {
	g := square(t)
	// Pairs: 4 sides (1) + 2 diagonals (√2): avg = (4 + 2√2)/6.
	want := (4 + 2*math.Sqrt2) / 6
	if got := DistPr(g, []graph.V{0, 1, 2, 3}, 1); math.Abs(got-want) > 1e-9 {
		t.Fatalf("distPr = %v, want %v", got, want)
	}
	if got := DistPr(g, []graph.V{0}, 1); got != 0 {
		t.Fatalf("single distPr = %v", got)
	}
	if got := DistPr(g, nil, 1); got != 0 {
		t.Fatalf("empty distPr = %v", got)
	}
}

func TestDistPrSampled(t *testing.T) {
	// Many co-located points plus structure: sampled mean must approximate
	// the exact mean. Build 1000 points alternating between two locations
	// 1 apart: exact avg distance ≈ 0.5.
	n := 1000
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			b.SetLoc(graph.V(i), geom.Point{X: 0, Y: 0})
		} else {
			b.SetLoc(graph.V(i), geom.Point{X: 1, Y: 0})
		}
	}
	g := b.Build()
	members := make([]graph.V, n)
	for i := range members {
		members[i] = graph.V(i)
	}
	got := DistPr(g, members, 42)
	if math.Abs(got-0.5) > 0.02 {
		t.Fatalf("sampled distPr = %v, want ≈0.5", got)
	}
	// Deterministic in seed.
	if got2 := DistPr(g, members, 42); got2 != got {
		t.Fatal("sampling not deterministic")
	}
}

func TestCJS(t *testing.T) {
	cases := []struct {
		a, b []graph.V
		want float64
	}{
		{[]graph.V{1, 2, 3}, []graph.V{1, 2, 3}, 1},
		{[]graph.V{1, 2}, []graph.V{3, 4}, 0},
		{[]graph.V{1, 2, 3}, []graph.V{2, 3, 4}, 0.5},
		{nil, nil, 1},
		{[]graph.V{1}, nil, 0},
		{[]graph.V{1, 1, 2}, []graph.V{2, 2, 1}, 1}, // duplicates ignored
	}
	for _, tc := range cases {
		if got := CJS(tc.a, tc.b); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("CJS(%v,%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
		if got, rev := CJS(tc.a, tc.b), CJS(tc.b, tc.a); got != rev {
			t.Errorf("CJS not symmetric for %v,%v", tc.a, tc.b)
		}
	}
}

func TestCAO(t *testing.T) {
	a := geom.Circle{C: geom.Point{X: 0, Y: 0}, R: 1}
	if got := CAO(a, a); math.Abs(got-1) > 1e-12 {
		t.Fatalf("self CAO = %v", got)
	}
	if got := CAO(a, geom.Circle{C: geom.Point{X: 5, Y: 0}, R: 1}); got != 0 {
		t.Fatalf("disjoint CAO = %v", got)
	}
}

func TestSummaryStats(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if Mean(xs) != 3 {
		t.Fatalf("mean = %v", Mean(xs))
	}
	if Mean(nil) != 0 {
		t.Fatal("empty mean should be 0")
	}
}
