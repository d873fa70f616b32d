package geom

// mccSeed makes the Welzl shuffle deterministic so that repeated runs over
// the same input produce bit-identical circles.
const mccSeed = 0x5ac5ea2c

// MCC returns the minimum covering circle of pts (Definition 2). The empty
// set yields a zero Circle; a single point yields a radius-0 circle. pts is
// left as it was: MCC is MCCInPlace over a copy.
func MCC(pts []Point) Circle {
	if len(pts) <= 3 {
		return MCCInPlace(pts) // reorders nothing this short
	}
	p := make([]Point, len(pts))
	copy(p, pts)
	return MCCInPlace(p)
}

// MCCInPlace is MCC for a caller that owns p and has no further use for its
// order: the shuffle runs on p itself, so a caller that refills one buffer
// per call allocates nothing. The circle is the one MCC returns, bit for bit.
//
// The implementation is the classic randomized incremental algorithm of
// Welzl with expected linear running time; the shuffle is seeded so results
// are deterministic.
func MCCInPlace(p []Point) Circle {
	switch len(p) {
	case 0:
		return Circle{}
	case 1:
		return Circle{C: p[0]}
	case 2:
		return CircleFrom2(p[0], p[1])
	case 3:
		return CircleFrom3(p[0], p[1], p[2])
	}
	// Deterministic in-place Fisher–Yates driven by splitmix64. MCC sits on
	// the query hot path (once per result, once per improving circle in the
	// exact algorithms); seeding a math/rand source per call cost more than
	// the Welzl walk itself on typical community sizes.
	state := uint64(mccSeed)
	for i := len(p) - 1; i > 0; i-- {
		state += 0x9e3779b97f4a7c15
		z := state
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
		j := int(z % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}

	c := CircleFrom2(p[0], p[1])
	for i := 2; i < len(p); i++ {
		if c.Contains(p[i]) {
			continue
		}
		// p[i] is on the boundary of the MCC of p[:i+1].
		c = mccWithOne(p[:i], p[i])
	}
	return c
}

// mccWithOne returns the MCC of pts ∪ {q} given that q is on its boundary.
func mccWithOne(pts []Point, q Point) Circle {
	c := Circle{C: q}
	for i := 0; i < len(pts); i++ {
		if c.Contains(pts[i]) {
			continue
		}
		c = mccWithTwo(pts[:i], q, pts[i])
	}
	return c
}

// mccWithTwo returns the MCC of pts ∪ {q1,q2} given both are on its boundary.
// The invariant requires every update to keep q1 and q2 on the boundary, so
// an uncovered point joins them on the circumcircle — not the minimum
// covering circle of the triple, which for an obtuse triangle would drop q1
// or q2 off the boundary and break the induction for later points.
func mccWithTwo(pts []Point, q1, q2 Point) Circle {
	c := CircleFrom2(q1, q2)
	for i := 0; i < len(pts); i++ {
		if c.Contains(pts[i]) {
			continue
		}
		if cc, ok := Circumcircle(q1, q2, pts[i]); ok {
			c = cc
		} else {
			// Nearly collinear triple: no finite circle through q1 and q2
			// reaches pts[i]; cover the triple directly as a safety net.
			c = CircleFrom3(q1, q2, pts[i])
		}
	}
	return c
}
