package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDist(t *testing.T) {
	a := Point{0, 0}
	b := Point{3, 4}
	if got := a.Dist(b); got != 5 {
		t.Fatalf("Dist = %v, want 5", got)
	}
	if got := a.Dist2(b); got != 25 {
		t.Fatalf("Dist2 = %v, want 25", got)
	}
	if got := a.Dist(a); got != 0 {
		t.Fatalf("Dist(a,a) = %v, want 0", got)
	}
}

func TestPointArithmetic(t *testing.T) {
	a := Point{1, 2}
	b := Point{3, -4}
	if got := a.Add(b); got != (Point{4, -2}) {
		t.Fatalf("Add = %v", got)
	}
	if got := a.Sub(b); got != (Point{-2, 6}) {
		t.Fatalf("Sub = %v", got)
	}
	if got := a.Scale(2); got != (Point{2, 4}) {
		t.Fatalf("Scale = %v", got)
	}
	if got := a.Mid(b); got != (Point{2, -1}) {
		t.Fatalf("Mid = %v", got)
	}
}

func TestCircleContains(t *testing.T) {
	c := Circle{C: Point{0, 0}, R: 1}
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{0, 0}, true},
		{Point{1, 0}, true},
		{Point{0, -1}, true},
		{Point{1 + Eps/2, 0}, true}, // boundary tolerance
		{Point{1.001, 0}, false},
		{Point{0.7, 0.7}, true},
		{Point{0.8, 0.8}, false},
	}
	for _, tc := range cases {
		if got := c.Contains(tc.p); got != tc.want {
			t.Errorf("Contains(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestCircleFrom2(t *testing.T) {
	c := CircleFrom2(Point{0, 0}, Point{2, 0})
	if c.C != (Point{1, 0}) || !almostEq(c.R, 1, 1e-12) {
		t.Fatalf("CircleFrom2 = %+v", c)
	}
	c = CircleFrom2(Point{1, 1}, Point{1, 1})
	if c.R != 0 {
		t.Fatalf("degenerate CircleFrom2 radius = %v, want 0", c.R)
	}
}

func TestCircumcircle(t *testing.T) {
	// Right triangle on the unit circle.
	c, ok := Circumcircle(Point{1, 0}, Point{-1, 0}, Point{0, 1})
	if !ok {
		t.Fatal("circumcircle should exist")
	}
	if !almostEq(c.R, 1, 1e-9) || !almostEq(c.C.X, 0, 1e-9) || !almostEq(c.C.Y, 0, 1e-9) {
		t.Fatalf("circumcircle = %+v, want unit circle at origin", c)
	}
	if _, ok := Circumcircle(Point{0, 0}, Point{1, 1}, Point{2, 2}); ok {
		t.Fatal("collinear points must not produce a circumcircle")
	}
}

func TestCircleFrom3Acute(t *testing.T) {
	// Equilateral-ish triangle: MCC is the circumcircle.
	a, b, c := Point{0, 0}, Point{1, 0}, Point{0.5, math.Sqrt(3) / 2}
	mcc := CircleFrom3(a, b, c)
	want := 1 / math.Sqrt(3) // circumradius of unit equilateral triangle
	if !almostEq(mcc.R, want, 1e-9) {
		t.Fatalf("R = %v, want %v", mcc.R, want)
	}
	for _, p := range []Point{a, b, c} {
		if !mcc.Contains(p) {
			t.Fatalf("MCC misses %v", p)
		}
	}
}

func TestCircleFrom3Obtuse(t *testing.T) {
	// Very obtuse triangle: MCC is the diameter circle on the longest side.
	a, b, c := Point{0, 0}, Point{4, 0}, Point{2, 0.1}
	mcc := CircleFrom3(a, b, c)
	if !almostEq(mcc.R, 2, 1e-9) {
		t.Fatalf("R = %v, want 2", mcc.R)
	}
	if !almostEq(mcc.C.X, 2, 1e-9) || !almostEq(mcc.C.Y, 0, 1e-9) {
		t.Fatalf("center = %v, want (2,0)", mcc.C)
	}
}

func TestCircleFrom3Collinear(t *testing.T) {
	mcc := CircleFrom3(Point{0, 0}, Point{1, 0}, Point{3, 0})
	if !almostEq(mcc.R, 1.5, 1e-9) {
		t.Fatalf("R = %v, want 1.5", mcc.R)
	}
	for _, p := range []Point{{0, 0}, {1, 0}, {3, 0}} {
		if !mcc.Contains(p) {
			t.Fatalf("collinear MCC misses %v", p)
		}
	}
}

func TestMCCSmallCases(t *testing.T) {
	if c := MCC(nil); c.R != 0 {
		t.Fatalf("MCC(nil).R = %v", c.R)
	}
	if c := MCC([]Point{{2, 3}}); c.R != 0 || c.C != (Point{2, 3}) {
		t.Fatalf("MCC(single) = %+v", c)
	}
	c := MCC([]Point{{0, 0}, {2, 0}})
	if !almostEq(c.R, 1, 1e-12) {
		t.Fatalf("MCC(pair).R = %v", c.R)
	}
}

func TestMCCPaperExample(t *testing.T) {
	// Example 1 / Figure 3: C1 = {Q, C, D} has ropt = 1.5 with
	// Q=(3,2), C=(3,5), D=(4,4) — the MCC of these three points.
	// (Coordinates chosen to match the published radius; see graph fixture
	// in the core package for the full worked example.)
	q := Point{3, 2}
	c := Point{3, 5}
	d := Point{4, 4}
	mcc := MCC([]Point{q, c, d})
	if mcc.R > 1.6 || mcc.R < 1.4 {
		t.Fatalf("paper-style MCC radius = %v, want ≈1.5", mcc.R)
	}
	for _, p := range []Point{q, c, d} {
		if !mcc.Contains(p) {
			t.Fatalf("MCC misses %v", p)
		}
	}
}

// bruteMCC is an O(n^4) reference: try every pair/triple-determined circle
// and return the smallest that covers all points.
func bruteMCC(pts []Point) Circle {
	switch len(pts) {
	case 0:
		return Circle{}
	case 1:
		return Circle{C: pts[0]}
	}
	best := Circle{R: math.Inf(1)}
	covers := func(c Circle) bool {
		for _, p := range pts {
			if !c.Contains(p) {
				return false
			}
		}
		return true
	}
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if c := CircleFrom2(pts[i], pts[j]); c.R < best.R && covers(c) {
				best = c
			}
			for k := j + 1; k < len(pts); k++ {
				if c := CircleFrom3(pts[i], pts[j], pts[k]); c.R < best.R && covers(c) {
					best = c
				}
			}
		}
	}
	return best
}

func TestMCCMatchesBruteForce(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rnd.Intn(12)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{rnd.Float64(), rnd.Float64()}
		}
		got := MCC(pts)
		want := bruteMCC(pts)
		if !almostEq(got.R, want.R, 1e-7) {
			t.Fatalf("trial %d: MCC.R = %.12f, brute = %.12f, pts=%v", trial, got.R, want.R, pts)
		}
	}
}

func TestMCCPropertyCoversAll(t *testing.T) {
	f := func(raw []struct{ X, Y float64 }) bool {
		pts := make([]Point, 0, len(raw))
		for _, r := range raw {
			// Keep magnitudes sane; coordinates in this repo live in [0,1]^2,
			// but the algorithm should stay robust a few orders beyond it.
			x := math.Mod(math.Abs(r.X), 1000)
			y := math.Mod(math.Abs(r.Y), 1000)
			if math.IsNaN(x) || math.IsNaN(y) {
				continue
			}
			pts = append(pts, Point{x, y})
		}
		c := MCC(pts)
		// Containment slack relative to the circle size: folded inputs sit
		// at coordinate scale up to 10³, where the absolute Eps alone is too
		// strict for the circumcircle's conditioning.
		slack := 1e-9 * (1 + c.R)
		for _, p := range pts {
			if c.C.Dist(p)-c.R > slack {
				return false
			}
		}
		return true
	}
	// Fixed Rand: quick's default source is time-seeded, which made any
	// failure unreproducible (this test is what exposed the mccWithTwo
	// boundary-invariant bug; see TestMCCBoundaryInvariantRegression).
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(20170828))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMCCDeterministic(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	pts := make([]Point, 100)
	for i := range pts {
		pts[i] = Point{rnd.Float64(), rnd.Float64()}
	}
	a := MCC(pts)
	b := MCC(pts)
	if a != b {
		t.Fatalf("MCC not deterministic: %+v vs %+v", a, b)
	}
}

func TestMCCDuplicatePoints(t *testing.T) {
	pts := []Point{{1, 1}, {1, 1}, {1, 1}, {2, 1}, {1, 1}}
	c := MCC(pts)
	if !almostEq(c.R, 0.5, 1e-9) {
		t.Fatalf("R = %v, want 0.5", c.R)
	}
}

// maxPairwiseDist is the largest distance between any two of pts (O(n²)).
func maxPairwiseDist(pts []Point) float64 {
	var best float64
	for i := 1; i < len(pts); i++ {
		for j := 0; j < i; j++ {
			best = math.Max(best, pts[i].Dist2(pts[j]))
		}
	}
	return math.Sqrt(best)
}

// Lemma 2 of the paper: for any point set, √3·r ≤ maxPairwise ≤ 2·r where r
// is the MCC radius — the upper bound always holds; the lower bound holds
// for sets where the MCC is determined by 3 points; for 2-point MCCs the max
// distance equals 2r. We check the universally true bounds.
func TestLemma2UpperBound(t *testing.T) {
	rnd := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		n := 3 + rnd.Intn(20)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{rnd.Float64(), rnd.Float64()}
		}
		r := MCC(pts).R
		d := maxPairwiseDist(pts)
		if d > 2*r+1e-9 {
			t.Fatalf("maxPairwise %v > 2r %v", d, 2*r)
		}
		if d < r-1e-9 { // trivially, diameter >= radius
			t.Fatalf("maxPairwise %v < r %v", d, r)
		}
	}
}

func TestIntersectionArea(t *testing.T) {
	a := Circle{C: Point{0, 0}, R: 1}
	// Disjoint.
	if got := IntersectionArea(a, Circle{C: Point{3, 0}, R: 1}); got != 0 {
		t.Fatalf("disjoint = %v", got)
	}
	// Contained.
	if got := IntersectionArea(a, Circle{C: Point{0.1, 0}, R: 0.2}); !almostEq(got, math.Pi*0.04, 1e-9) {
		t.Fatalf("contained = %v", got)
	}
	// Identical.
	if got := IntersectionArea(a, a); !almostEq(got, math.Pi, 1e-9) {
		t.Fatalf("identical = %v", got)
	}
	// Half-offset circles: known lens area 2r²(θ−sinθcosθ) with cosθ=d/2r.
	b := Circle{C: Point{1, 0}, R: 1}
	theta := math.Acos(0.5)
	want := 2 * (theta - math.Sin(theta)*math.Cos(theta))
	if got := IntersectionArea(a, b); !almostEq(got, want, 1e-9) {
		t.Fatalf("lens = %v, want %v", got, want)
	}
	// Zero-radius.
	if got := IntersectionArea(a, Circle{C: Point{0, 0}, R: 0}); got != 0 {
		t.Fatalf("degenerate = %v", got)
	}
}

func TestIntersectionAreaProperties(t *testing.T) {
	f := func(x1, y1, r1, x2, y2, r2 float64) bool {
		a := Circle{C: Point{math.Mod(math.Abs(x1), 10), math.Mod(math.Abs(y1), 10)}, R: math.Mod(math.Abs(r1), 5)}
		b := Circle{C: Point{math.Mod(math.Abs(x2), 10), math.Mod(math.Abs(y2), 10)}, R: math.Mod(math.Abs(r2), 5)}
		ab := IntersectionArea(a, b)
		ba := IntersectionArea(b, a)
		if !almostEq(ab, ba, 1e-9) {
			return false // symmetry
		}
		if ab < 0 {
			return false // non-negative
		}
		lim := math.Min(a.Area(), b.Area())
		return ab <= lim+1e-9 // bounded by the smaller disk
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestOverlapRatio(t *testing.T) {
	a := Circle{C: Point{0, 0}, R: 1}
	if got := OverlapRatio(a, a); !almostEq(got, 1, 1e-9) {
		t.Fatalf("self overlap = %v", got)
	}
	if got := OverlapRatio(a, Circle{C: Point{5, 0}, R: 1}); got != 0 {
		t.Fatalf("disjoint overlap = %v", got)
	}
	// Degenerate circles at the same location are fully overlapping.
	z := Circle{C: Point{1, 1}, R: 0}
	if got := OverlapRatio(z, z); got != 1 {
		t.Fatalf("degenerate same = %v", got)
	}
	if got := OverlapRatio(z, Circle{C: Point{2, 2}, R: 0}); got != 0 {
		t.Fatalf("degenerate apart = %v", got)
	}
	// Ratio is within [0,1] and symmetric for a sample.
	b := Circle{C: Point{0.5, 0}, R: 1}
	r1, r2 := OverlapRatio(a, b), OverlapRatio(b, a)
	if !almostEq(r1, r2, 1e-12) || r1 <= 0 || r1 >= 1 {
		t.Fatalf("overlap = %v / %v", r1, r2)
	}
}

func BenchmarkMCC(b *testing.B) {
	rnd := rand.New(rand.NewSource(3))
	pts := make([]Point, 1000)
	for i := range pts {
		pts[i] = Point{rnd.Float64(), rnd.Float64()}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MCC(pts)
	}
}

// TestMCCInPlaceMatchesMCC pins the contract the query path relies on: the
// in-place variant returns MCC's circle bit for bit (same shuffle, same
// walk), and MCC leaves its argument alone.
func TestMCCInPlaceMatchesMCC(t *testing.T) {
	rnd := rand.New(rand.NewSource(12))
	for n := 0; n <= 60; n++ {
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{rnd.Float64(), rnd.Float64()}
			if n%5 == 0 { // lattice: ties and co-located points
				pts[i] = Point{float64(rnd.Intn(4)) / 4, float64(rnd.Intn(4)) / 4}
			}
		}
		orig := append([]Point(nil), pts...)
		want := MCC(pts)
		for i := range pts {
			if pts[i] != orig[i] {
				t.Fatalf("n=%d: MCC reordered its argument", n)
			}
		}
		if got := MCCInPlace(pts); got != want {
			t.Fatalf("n=%d: MCCInPlace = %+v, MCC = %+v", n, got, want)
		}
	}
	buf := make([]Point, 50)
	if allocs := testing.AllocsPerRun(10, func() { MCCInPlace(buf) }); allocs != 0 {
		t.Fatalf("MCCInPlace allocates %v times", allocs)
	}
}
