// Package quadtree implements the region-quadtree cell machinery AppAcc uses
// to refine anchor points level by level (Section 4.4; Finkel–Bentley [13]).
// The tree is never materialized: AppAcc walks it breadth-first, so the
// package exposes square cells, their children, and a Frontier that expands
// one level at a time under a pruning predicate.
package quadtree

import "sacsearch/internal/geom"

// Cell is an axis-aligned square: center C, half-width Half. Its anchor
// point (the paper's term) is the center.
type Cell struct {
	C    geom.Point
	Half float64
	// InfeasibleR is the largest radius r known such that no feasible
	// solution fits in a circle of radius r centered at an ancestor anchor,
	// translated to this cell's center (Pruning2 bookkeeping, Section 4.4).
	// Zero means "nothing known".
	InfeasibleR float64
}

// Root returns the cell covering the square of the given half-width centered
// at c (AppAcc's root has half-width γ, i.e. width 2γ).
func Root(c geom.Point, half float64) Cell {
	return Cell{C: c, Half: half}
}

// Children returns the four equal quadrants of the cell. Each child's
// InfeasibleR is inherited, reduced by the center-to-center distance
// (√2·Half/2): if no feasible solution fits in O(parent, r), none fits in
// O(child, r − |parent,child|).
func (c Cell) Children() [4]Cell {
	h := c.Half / 2
	inherit := c.InfeasibleR - sqrt2*h // |parent center, child center| = √2·h
	if inherit < 0 {
		inherit = 0
	}
	return [4]Cell{
		{C: geom.Point{X: c.C.X - h, Y: c.C.Y - h}, Half: h, InfeasibleR: inherit},
		{C: geom.Point{X: c.C.X + h, Y: c.C.Y - h}, Half: h, InfeasibleR: inherit},
		{C: geom.Point{X: c.C.X - h, Y: c.C.Y + h}, Half: h, InfeasibleR: inherit},
		{C: geom.Point{X: c.C.X + h, Y: c.C.Y + h}, Half: h, InfeasibleR: inherit},
	}
}

// Contains reports whether p lies inside the closed square.
func (c Cell) Contains(p geom.Point) bool {
	return p.X >= c.C.X-c.Half-geom.Eps && p.X <= c.C.X+c.Half+geom.Eps &&
		p.Y >= c.C.Y-c.Half-geom.Eps && p.Y <= c.C.Y+c.Half+geom.Eps
}

// CoverRadius returns the distance from the cell center to its corners,
// √2·Half: any point of the cell is within this distance of the anchor. The
// paper writes it √2·β/2 for a cell of width β.
func (c Cell) CoverRadius() float64 { return sqrt2 * c.Half }

const sqrt2 = 1.4142135623730951

// Frontier is one breadth-first level of an implicit region quadtree. The
// zero value is empty; Reset starts a walk. A Frontier keeps the storage of
// the level it left for the level after next, so a walk — and every later
// walk on the same Frontier — allocates only while a level is wider than any
// before it.
type Frontier struct {
	cells []Cell
	spare []Cell // the previous level's storage, the next level's
}

// Reset starts the frontier at the four children of root, matching AppAcc's
// initial achList (Algorithm 4, line 4).
func (f *Frontier) Reset(root Cell) {
	ch := root.Children()
	f.cells = append(f.cells[:0], ch[:]...)
}

// Cells returns the current level's cells; the slice is owned by the
// Frontier and valid until Expand.
func (f *Frontier) Cells() []Cell { return f.cells }

// Len returns the number of cells at the current level.
func (f *Frontier) Len() int { return len(f.cells) }

// Half returns the half-width of the current level's cells (0 when empty).
func (f *Frontier) Half() float64 {
	if len(f.cells) == 0 {
		return 0
	}
	return f.cells[0].Half
}

// Expand replaces the frontier with the children of the cells for which keep
// returns true. It returns the number of kept parents.
func (f *Frontier) Expand(keep func(Cell) bool) int {
	next := f.spare[:0]
	kept := 0
	for _, c := range f.cells {
		if !keep(c) {
			continue
		}
		kept++
		ch := c.Children()
		next = append(next, ch[:]...)
	}
	f.cells, f.spare = next, f.cells
	return kept
}
