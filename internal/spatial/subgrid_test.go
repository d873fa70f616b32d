package spatial

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
)

// randomSubsetGraph builds a graph of n isolated vertices at random unit-
// square locations and returns it with a random subset of its vertex ids.
func randomSubsetGraph(t *testing.T, rng *rand.Rand, n int) (*graph.Graph, []graph.V) {
	t.Helper()
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetLoc(graph.V(v), geom.Point{X: rng.Float64(), Y: rng.Float64()})
	}
	g := b.Build()
	var subset []graph.V
	for v := 0; v < n; v++ {
		if rng.Intn(3) != 0 {
			subset = append(subset, graph.V(v))
		}
	}
	return g, subset
}

func TestSubGridInCircleMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var sg SubGrid
	for trial := 0; trial < 20; trial++ {
		g, subset := randomSubsetGraph(t, rng, 200)
		sg.Build(g, subset, 4)
		if sg.Len() != len(subset) {
			t.Fatalf("Len = %d, want %d", sg.Len(), len(subset))
		}
		for probe := 0; probe < 10; probe++ {
			c := geom.Circle{
				C: geom.Point{X: rng.Float64(), Y: rng.Float64()},
				R: rng.Float64() * 0.3,
			}
			got := sg.InCircle(c, nil)
			var want []graph.V
			for _, v := range subset {
				if c.Contains(g.Loc(v)) {
					want = append(want, v)
				}
			}
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d probe %d: InCircle = %v, want %v", trial, probe, got, want)
			}
		}
	}
}

func TestSubGridInAnnulusMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var sg SubGrid
	for trial := 0; trial < 20; trial++ {
		g, subset := randomSubsetGraph(t, rng, 150)
		sg.Build(g, subset, 4)
		for probe := 0; probe < 10; probe++ {
			center := geom.Point{X: rng.Float64(), Y: rng.Float64()}
			rOuter := 0.05 + rng.Float64()*0.3
			rInner := rOuter * rng.Float64()
			got := sg.InAnnulus(center, rInner, rOuter, nil)
			var want []graph.V
			for _, v := range subset {
				d := center.Dist(g.Loc(v))
				if d >= rInner-geom.Eps && d <= rOuter+geom.Eps {
					want = append(want, v)
				}
			}
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d probe %d: InAnnulus = %v, want %v", trial, probe, got, want)
			}
		}
	}
}

func TestSubGridRebuildReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, subset := randomSubsetGraph(t, rng, 400)
	var sg SubGrid
	sg.Build(g, subset, 4)
	// Rebuilding over a smaller subset must fully replace the contents.
	small := subset[:10]
	sg.Build(g, small, 4)
	if sg.Len() != len(small) {
		t.Fatalf("Len after rebuild = %d, want %d", sg.Len(), len(small))
	}
	all := sg.InCircle(geom.Circle{C: geom.Point{X: 0.5, Y: 0.5}, R: 2}, nil)
	slices.Sort(all)
	want := append([]graph.V(nil), small...)
	slices.Sort(want)
	if !slices.Equal(all, want) {
		t.Fatalf("rebuilt grid contents = %v, want %v", all, want)
	}
	// Steady-state rebuilds should not allocate.
	allocs := testing.AllocsPerRun(20, func() {
		sg.Build(g, subset, 4)
	})
	if allocs > 0 {
		t.Fatalf("steady-state Build allocates %v times per run", allocs)
	}
}

// TestEmptyGrid rebuilds a populated grid over nothing: the previous contents
// must be gone and every query empty.
func TestEmptyGrid(t *testing.T) {
	sg := allVerticesGrid(randomPoints(50, 2), 4)
	sg.Build(nil, nil, 4)
	if sg.Len() != 0 {
		t.Fatal("empty build not empty")
	}
	if out := sg.InCircle(geom.Circle{C: geom.Point{X: 0.5, Y: 0.5}, R: 10}, nil); len(out) != 0 {
		t.Fatalf("InCircle on empty = %v", out)
	}
	if out := sg.InAnnulus(geom.Point{X: 0.5, Y: 0.5}, 0, 10, nil); len(out) != 0 {
		t.Fatalf("InAnnulus on empty = %v", out)
	}
}

func TestSinglePoint(t *testing.T) {
	sg := allVerticesGrid([]geom.Point{{X: 0.3, Y: 0.7}}, 4)
	got := sg.InCircle(geom.Circle{C: geom.Point{X: 0.3, Y: 0.7}, R: 0}, nil)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("InCircle = %v", got)
	}
	if got := sg.InCircle(geom.Circle{C: geom.Point{X: 0.9, Y: 0.9}, R: 0.1}, nil); len(got) != 0 {
		t.Fatalf("miss = %v", got)
	}
}

// TestInAnnulus is a hand-checked annulus that cuts on both sides: the
// centre point falls inside the inner radius, the far point beyond the outer.
func TestInAnnulus(t *testing.T) {
	sg := allVerticesGrid([]geom.Point{
		{X: 0.5, Y: 0.5},  // center, dist 0
		{X: 0.6, Y: 0.5},  // dist 0.1
		{X: 0.8, Y: 0.5},  // dist 0.3
		{X: 0.95, Y: 0.5}, // dist 0.45
	}, 1)
	got := sg.InAnnulus(geom.Point{X: 0.5, Y: 0.5}, 0.05, 0.35, nil)
	slices.Sort(got)
	if !slices.Equal(got, []graph.V{1, 2}) {
		t.Fatalf("annulus = %v, want [1 2]", got)
	}
	// Inner radius 0 includes the center point.
	got = sg.InAnnulus(geom.Point{X: 0.5, Y: 0.5}, 0, 0.35, nil)
	slices.Sort(got)
	if !slices.Equal(got, []graph.V{0, 1, 2}) {
		t.Fatalf("annulus with rInner=0 = %v", got)
	}
}

// TestSubGridAnisotropicBounded pins the cell-count bound on degenerate
// input: collinear points collapse one extent, and area-based cell sizing
// alone would create hundreds of thousands of cells for a handful of
// vertices. The CSR offsets slice is the cell count plus one.
func TestSubGridAnisotropicBounded(t *testing.T) {
	n := 100
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetLoc(graph.V(v), geom.Point{X: float64(v) / float64(n), Y: 0.5})
	}
	g := b.Build()
	vs := make([]graph.V, n)
	for v := range vs {
		vs[v] = graph.V(v)
	}
	var sg SubGrid
	sg.Build(g, vs, 4)
	if cells := len(sg.start) - 1; cells > 4*n {
		t.Fatalf("anisotropic build created %d cells for %d vertices", cells, n)
	}
	got := sg.InCircle(geom.Circle{C: geom.Point{X: 0.5, Y: 0.5}, R: 0.1}, nil)
	var want int
	for _, v := range vs {
		if g.Loc(v).Dist(geom.Point{X: 0.5, Y: 0.5}) <= 0.1+geom.Eps {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("collinear InCircle returned %d, want %d", len(got), want)
	}
}

// TestSubGridAnnulusTinyInner pins the near-zero inner-bound guard: an
// rInner within tolerance of zero must exclude nothing, in particular not
// a vertex sitting exactly at the center.
func TestSubGridAnnulusTinyInner(t *testing.T) {
	b := graph.NewBuilder(2)
	b.SetLoc(0, geom.Point{X: 0.5, Y: 0.5})
	b.SetLoc(1, geom.Point{X: 0.6, Y: 0.5})
	g := b.Build()
	var sg SubGrid
	sg.Build(g, []graph.V{0, 1}, 4)
	got := sg.InAnnulus(geom.Point{X: 0.5, Y: 0.5}, 5e-10, 0.2, nil)
	if len(got) != 2 {
		t.Fatalf("tiny rInner dropped the center vertex: got %v", got)
	}
}

// allVerticesGrid returns a SubGrid over all vertices of a graph of isolated
// vertices at pts — the whole-graph index the range-query ablation uses.
func allVerticesGrid(pts []geom.Point, targetPerCell int) *SubGrid {
	b := graph.NewBuilder(len(pts))
	all := make([]graph.V, len(pts))
	for i, p := range pts {
		b.SetLoc(graph.V(i), p)
		all[i] = graph.V(i)
	}
	sg := new(SubGrid)
	sg.Build(b.Build(), all, targetPerCell)
	return sg
}

func randomPoints(n int, seed int64) []geom.Point {
	rnd := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rnd.Float64(), Y: rnd.Float64()}
	}
	return pts
}

// inCircleMatchesBrute reports whether sg.InCircle(c) is exactly the points
// of pts inside c.
func inCircleMatchesBrute(sg *SubGrid, pts []geom.Point, c geom.Circle) bool {
	var want []graph.V
	for i, p := range pts {
		if c.Contains(p) {
			want = append(want, graph.V(i))
		}
	}
	got := sg.InCircle(c, nil)
	slices.Sort(got)
	return slices.Equal(got, want)
}

// TestInCircleMatchesBrute indexes a whole 2000-vertex graph and probes with
// circles whose centres and reach go beyond the indexed extent, so the cell
// range clamps on every side.
func TestInCircleMatchesBrute(t *testing.T) {
	pts := randomPoints(2000, 42)
	sg := allVerticesGrid(pts, 4)
	rnd := rand.New(rand.NewSource(43))
	for trial := 0; trial < 100; trial++ {
		c := geom.Circle{
			C: geom.Point{X: rnd.Float64() * 1.2, Y: rnd.Float64() * 1.2},
			R: rnd.Float64() * 0.4,
		}
		if !inCircleMatchesBrute(sg, pts, c) {
			t.Fatalf("trial %d circle %+v: InCircle differs from the linear scan", trial, c)
		}
	}
}

func TestInCircleNegativeRadius(t *testing.T) {
	sg := allVerticesGrid(randomPoints(10, 1), 4)
	if got := sg.InCircle(geom.Circle{C: geom.Point{X: 0.5, Y: 0.5}, R: -1}, nil); len(got) != 0 {
		t.Fatalf("negative radius = %v", got)
	}
}

// TestDegenerateAllSamePoint collapses both extents of the bounding box at
// once (TestSubGridAnisotropicBounded collapses one).
func TestDegenerateAllSamePoint(t *testing.T) {
	pts := make([]geom.Point, 20)
	for i := range pts {
		pts[i] = geom.Point{X: 0.5, Y: 0.5}
	}
	sg := allVerticesGrid(pts, 4)
	if got := sg.InCircle(geom.Circle{C: geom.Point{X: 0.5, Y: 0.5}, R: 0.01}, nil); len(got) != 20 {
		t.Fatalf("got %d, want 20", len(got))
	}
	if got := sg.InCircle(geom.Circle{C: geom.Point{X: 0.6, Y: 0.5}, R: 0.01}, nil); len(got) != 0 {
		t.Fatalf("miss returned %v", got)
	}
}

// Property: InCircle returns exactly the brute-force set for arbitrary
// circles and point clouds, down to a single point.
func TestInCircleProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8, cxRaw, cyRaw, rRaw uint16) bool {
		pts := randomPoints(int(nRaw%100)+1, seed)
		sg := allVerticesGrid(pts, 3)
		c := geom.Circle{
			C: geom.Point{X: float64(cxRaw) / 65535, Y: float64(cyRaw) / 65535},
			R: float64(rRaw) / 65535 * 0.5,
		}
		return inCircleMatchesBrute(sg, pts, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// diskAgreesWithInCircle checks the three position queries of a Disk against
// InCircle, the definition of what the disk holds: Positions is InCircle
// read through IDs, Holds answers membership position by position, and Of
// filters an arbitrary position list in its own order.
func diskAgreesWithInCircle(t *testing.T, sg *SubGrid, c geom.Circle) {
	t.Helper()
	want := sg.InCircle(c, nil)
	d := sg.Disk(c)
	pos := d.Positions(nil)
	got := make([]graph.V, len(pos))
	for i, p := range pos {
		got[i] = sg.IDs()[p]
	}
	if !slices.Equal(got, want) {
		t.Fatalf("circle %+v: Positions = %v, InCircle = %v", c, got, want)
	}
	var from, held []int32
	for p := int32(sg.Len()) - 1; p >= 0; p-- { // descending: Of keeps from's order
		from = append(from, p)
		if slices.Contains(pos, p) != d.Holds(p) {
			t.Fatalf("circle %+v: Holds(%d) = %v, InCircle disagrees", c, p, d.Holds(p))
		}
		if d.Holds(p) {
			held = append(held, p)
		}
	}
	if got := d.Of(from, nil); !slices.Equal(got, held) {
		t.Fatalf("circle %+v: Of = %v, want %v", c, got, held)
	}
}

func TestDiskAgreesWithInCircle(t *testing.T) {
	rnd := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		pts := randomPoints(1+rnd.Intn(300), int64(trial))
		if trial%3 == 0 { // a lattice: co-located points, points exactly on boundaries
			for i := range pts {
				pts[i] = geom.Point{X: float64(rnd.Intn(6)) / 6, Y: float64(rnd.Intn(6)) / 6}
			}
		}
		sg := allVerticesGrid(pts, 1+trial%4)
		for probe := 0; probe < 20; probe++ {
			a, b := pts[rnd.Intn(len(pts))], pts[rnd.Intn(len(pts))]
			diskAgreesWithInCircle(t, sg, geom.Circle{C: a, R: a.Dist(b)})
			diskAgreesWithInCircle(t, sg, geom.CircleFrom2(a, b))
			diskAgreesWithInCircle(t, sg, geom.Circle{C: geom.Point{X: rnd.Float64() * 1.2, Y: rnd.Float64() * 1.2}, R: rnd.Float64() * 0.5})
		}
		diskAgreesWithInCircle(t, sg, geom.Circle{C: pts[0], R: -1})
		diskAgreesWithInCircle(t, sg, geom.Circle{C: pts[0], R: 0})
		diskAgreesWithInCircle(t, sg, geom.Circle{C: pts[0], R: 10})
	}
	var empty SubGrid
	empty.Build(nil, nil, 4)
	if d := empty.Disk(geom.Circle{R: 1}); len(d.Positions(nil)) != 0 {
		t.Fatal("a disk over an empty grid holds something")
	}
}

// TestDiskOutsideWindow builds the one case where the distance test and the
// cell window disagree: a vertex within Eps beyond the circle's leftmost
// point, in the cell column left of the one that point falls in. InCircle
// never scans that cell, so Holds must say no although the distance passes.
func TestDiskOutsideWindow(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 1}, {X: 0.25 - 5e-10, Y: 0.5}, {X: 0.25, Y: 0.5}}
	for len(pts) < 16 {
		pts = append(pts, geom.Point{X: 0.9, Y: 0.1})
	}
	sg := allVerticesGrid(pts, 1) // unit extent, 16 cells: cell edge exactly 0.25
	c := geom.Circle{C: geom.Point{X: 0.5, Y: 0.5}, R: 0.25}
	if !c.Contains(pts[2]) {
		t.Fatal("fixture: the vertex is not within tolerance of the circle")
	}
	got := sg.InCircle(c, nil)
	if slices.Contains(got, 2) || !slices.Contains(got, 3) {
		t.Fatalf("fixture: InCircle = %v, want vertex 3 and not vertex 2", got)
	}
	diskAgreesWithInCircle(t, sg, c)
}
