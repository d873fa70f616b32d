package quadtree

import (
	"math"
	"testing"

	"sacsearch/internal/geom"
)

func TestRootAndWidth(t *testing.T) {
	r := Root(geom.Point{X: 1, Y: 2}, 0.5)
	if r.C != (geom.Point{X: 1, Y: 2}) || r.Half != 0.5 {
		t.Fatalf("Root = %+v, want centre (1,2) and half-width 0.5", r)
	}
	if got := r.CoverRadius(); math.Abs(got-math.Sqrt2*0.5) > 1e-12 {
		t.Fatalf("CoverRadius = %v", got)
	}
}

func TestChildrenGeometry(t *testing.T) {
	r := Root(geom.Point{X: 0, Y: 0}, 1)
	ch := r.Children()
	if len(ch) != 4 {
		t.Fatalf("children = %d", len(ch))
	}
	// Children tile the parent: each has half-width 0.5, centers at (±0.5, ±0.5).
	seen := map[geom.Point]bool{}
	for _, c := range ch {
		if c.Half != 0.5 {
			t.Fatalf("child half = %v", c.Half)
		}
		seen[c.C] = true
		// Child must be inside parent.
		if !r.Contains(c.C) {
			t.Fatalf("child center %v outside parent", c.C)
		}
	}
	for _, want := range []geom.Point{{X: -0.5, Y: -0.5}, {X: 0.5, Y: -0.5}, {X: -0.5, Y: 0.5}, {X: 0.5, Y: 0.5}} {
		if !seen[want] {
			t.Fatalf("missing child center %v (have %v)", want, seen)
		}
	}
}

func TestContains(t *testing.T) {
	c := Cell{C: geom.Point{X: 0, Y: 0}, Half: 1}
	cases := []struct {
		p    geom.Point
		want bool
	}{
		{geom.Point{X: 0, Y: 0}, true},
		{geom.Point{X: 1, Y: 1}, true},  // corner
		{geom.Point{X: -1, Y: 0}, true}, // edge
		{geom.Point{X: 1.01, Y: 0}, false},
		{geom.Point{X: 0, Y: -1.5}, false},
	}
	for _, tc := range cases {
		if got := c.Contains(tc.p); got != tc.want {
			t.Errorf("Contains(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestInfeasibleInheritance(t *testing.T) {
	c := Cell{C: geom.Point{X: 0, Y: 0}, Half: 1, InfeasibleR: 2}
	ch := c.Children()
	// Inherited radius = 2 − √2·0.5.
	want := 2 - math.Sqrt2*0.5
	for _, child := range ch {
		if math.Abs(child.InfeasibleR-want) > 1e-12 {
			t.Fatalf("inherited = %v, want %v", child.InfeasibleR, want)
		}
	}
	// Small parent knowledge does not go negative.
	c.InfeasibleR = 0.1
	for _, child := range c.Children() {
		if child.InfeasibleR != 0 {
			t.Fatalf("negative inheritance clamped? got %v", child.InfeasibleR)
		}
	}
}

func TestFrontierExpand(t *testing.T) {
	var f Frontier
	f.Reset(Root(geom.Point{X: 0, Y: 0}, 1))
	if f.Len() != 4 {
		t.Fatalf("initial len = %d", f.Len())
	}
	if f.Half() != 0.5 {
		t.Fatalf("initial half = %v", f.Half())
	}
	// Keep only cells in the right half-plane: 2 parents → 8 children.
	kept := f.Expand(func(c Cell) bool { return c.C.X > 0 })
	if kept != 2 {
		t.Fatalf("kept = %d", kept)
	}
	if f.Len() != 8 {
		t.Fatalf("len after expand = %d", f.Len())
	}
	if f.Half() != 0.25 {
		t.Fatalf("half after expand = %v", f.Half())
	}
	// Expand with nothing kept → empty frontier.
	f.Expand(func(Cell) bool { return false })
	if f.Len() != 0 || f.Half() != 0 {
		t.Fatalf("empty frontier: len=%d half=%v", f.Len(), f.Half())
	}
}

// The quadtree refinement underlying AppAcc: after L full expansions, cells
// have half-width root.Half/2^L and every point of the root square lies in
// exactly one cell whose center is within CoverRadius.
func TestRefinementCoversSquare(t *testing.T) {
	root := Root(geom.Point{X: 0.5, Y: 0.5}, 0.5)
	var f Frontier
	f.Reset(root)
	for level := 0; level < 3; level++ {
		f.Expand(func(Cell) bool { return true })
	}
	if f.Len() != 4*64 {
		t.Fatalf("len = %d, want 256", f.Len())
	}
	probe := []geom.Point{{X: 0.1, Y: 0.9}, {X: 0.5, Y: 0.5}, {X: 0.999, Y: 0.001}}
	for _, p := range probe {
		covered := false
		for _, c := range f.Cells() {
			if c.Contains(p) && c.C.Dist(p) <= c.CoverRadius()+geom.Eps {
				covered = true
				break
			}
		}
		if !covered {
			t.Fatalf("point %v not covered at final level", p)
		}
	}
}

// TestFrontierAppAccAllocs pins the ping-pong buffers: AppAcc walks one
// Frontier per query, Reset after Reset, and once a walk has grown the two
// level buffers a later walk of the same shape allocates nothing.
func TestFrontierAppAccAllocs(t *testing.T) {
	var f Frontier
	walk := func() {
		f.Reset(Root(geom.Point{X: 0.5, Y: 0.5}, 0.5))
		for level := 0; level < 4; level++ {
			f.Expand(func(c Cell) bool { return c.C.X > 0.3 })
		}
	}
	walk()
	want := f.Len()
	if allocs := testing.AllocsPerRun(20, walk); allocs != 0 {
		t.Fatalf("a repeated walk allocates %v times", allocs)
	}
	if f.Len() != want || f.Half() != 0.5/32 {
		t.Fatalf("repeated walk ended at %d cells of half-width %v, first at %d", f.Len(), f.Half(), want)
	}
}
