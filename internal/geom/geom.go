// Package geom implements the planar geometry substrate used by SAC search:
// points, circles, minimum covering circles (MCC, Definition 2 of the paper)
// and circle-overlap areas (used by the CAO quality metric, Equation 10).
//
// All computations use float64 and a small relative tolerance Eps to absorb
// round-off; every predicate that tests containment accepts points that are
// within Eps of the boundary.
package geom

import "math"

// Eps is the absolute tolerance used by boundary predicates. Coordinates in
// this repository are normalized to the unit square, so an absolute epsilon
// is appropriate.
const Eps = 1e-9

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and o.
func (p Point) Dist(o Point) float64 {
	// Plain sqrt(dx²+dy²), not math.Hypot: coordinates live in the unit
	// square (or modest multiples of it), so Hypot's overflow/underflow
	// guards buy nothing and cost ~2× on the query hot path, which computes
	// millions of distances.
	dx := p.X - o.X
	dy := p.Y - o.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Dist2 returns the squared Euclidean distance between p and o. It is cheaper
// than Dist and preserves ordering, so hot paths compare squared distances.
func (p Point) Dist2(o Point) float64 {
	dx := p.X - o.X
	dy := p.Y - o.Y
	return dx*dx + dy*dy
}

// Add returns p translated by o.
func (p Point) Add(o Point) Point { return Point{p.X + o.X, p.Y + o.Y} }

// Sub returns p minus o.
func (p Point) Sub(o Point) Point { return Point{p.X - o.X, p.Y - o.Y} }

// Scale returns p with both coordinates multiplied by f.
func (p Point) Scale(f float64) Point { return Point{p.X * f, p.Y * f} }

// Mid returns the midpoint of p and o.
func (p Point) Mid(o Point) Point { return Point{(p.X + o.X) / 2, (p.Y + o.Y) / 2} }

// Finite reports whether f is neither NaN nor ±Inf. Input validation shares
// it: a NaN coordinate silently poisons every distance sort it touches and
// ±Inf breaks MCC, so writers reject non-finite coordinates up front.
func Finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// Circle is a closed disk with center C and radius R. The paper writes it
// O(o, r).
type Circle struct {
	C Point
	R float64
}

// Contains reports whether p lies inside the closed disk, with tolerance Eps.
func (c Circle) Contains(p Point) bool {
	r := c.R + Eps
	return c.C.Dist2(p) <= r*r
}

// Area returns the area of the disk.
func (c Circle) Area() float64 { return math.Pi * c.R * c.R }

// CircleFrom2 returns the smallest circle through a and b: the circle whose
// diameter is the segment ab (Lemma 1, two-point case).
func CircleFrom2(a, b Point) Circle {
	return Circle{C: a.Mid(b), R: a.Dist(b) / 2}
}

// Circumcircle returns the circle through the three points a, b, c and true,
// or the zero Circle and false when the points are (nearly) collinear.
func Circumcircle(a, b, c Point) (Circle, bool) {
	// Translate so that a is the origin for numerical stability.
	bx := b.X - a.X
	by := b.Y - a.Y
	cx := c.X - a.X
	cy := c.Y - a.Y
	d := 2 * (bx*cy - by*cx)
	if math.Abs(d) < 1e-18 {
		return Circle{}, false
	}
	b2 := bx*bx + by*by
	c2 := cx*cx + cy*cy
	ux := (cy*b2 - by*c2) / d
	uy := (bx*c2 - cx*b2) / d
	center := Point{a.X + ux, a.Y + uy}
	return Circle{C: center, R: center.Dist(a)}, true
}

// CircleFrom3 returns the minimum covering circle of the three points a, b
// and c. When the triangle is obtuse (or degenerate) this is the two-point
// circle on its longest side; otherwise it is the circumcircle (Lemma 1).
func CircleFrom3(a, b, c Point) Circle {
	// Try each two-point circle first: the smallest valid one wins.
	best := Circle{R: math.Inf(1)}
	try2 := func(p, q, other Point) {
		cc := CircleFrom2(p, q)
		if cc.R < best.R && cc.Contains(other) {
			best = cc
		}
	}
	try2(a, b, c)
	try2(a, c, b)
	try2(b, c, a)
	if !math.IsInf(best.R, 1) {
		return best
	}
	if cc, ok := Circumcircle(a, b, c); ok {
		return cc
	}
	// Collinear points: the farthest pair's diameter circle covers all three.
	// (One of the two-point circles above must have covered this; this path
	// is a numerical safety net.)
	best = CircleFrom2(a, b)
	if cc := CircleFrom2(a, c); cc.R > best.R {
		best = cc
	}
	if cc := CircleFrom2(b, c); cc.R > best.R {
		best = cc
	}
	return best
}

// IntersectionArea returns the area of the intersection of the two disks.
func IntersectionArea(a, b Circle) float64 {
	if a.R <= 0 || b.R <= 0 {
		return 0
	}
	d := a.C.Dist(b.C)
	if d >= a.R+b.R {
		return 0
	}
	small := math.Min(a.R, b.R)
	if d <= math.Abs(a.R-b.R) {
		return math.Pi * small * small
	}
	// Standard circular-lens formula.
	r1, r2 := a.R, b.R
	cos1 := clamp((d*d+r1*r1-r2*r2)/(2*d*r1), -1, 1)
	cos2 := clamp((d*d+r2*r2-r1*r1)/(2*d*r2), -1, 1)
	part1 := r1 * r1 * math.Acos(cos1)
	part2 := r2 * r2 * math.Acos(cos2)
	s := (-d + r1 + r2) * (d + r1 - r2) * (d - r1 + r2) * (d + r1 + r2)
	if s < 0 {
		s = 0
	}
	return part1 + part2 - 0.5*math.Sqrt(s)
}

// UnionArea returns the area of the union of the two disks.
func UnionArea(a, b Circle) float64 {
	return a.Area() + b.Area() - IntersectionArea(a, b)
}

// OverlapRatio returns intersection/union of the two disks, the Jaccard
// similarity of their areas (CAO, Equation 10). It returns 0 when both disks
// are degenerate.
func OverlapRatio(a, b Circle) float64 {
	u := UnionArea(a, b)
	if u <= 0 {
		// Two degenerate (radius-0) circles: equal centers overlap fully.
		if a.C.Dist(b.C) <= Eps {
			return 1
		}
		return 0
	}
	return IntersectionArea(a, b) / u
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
