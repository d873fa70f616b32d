// Package spatial implements the uniform-grid point index of the SAC query
// path. SAC search repeatedly gathers "all vertices inside circle O(c, r)"
// (AppAcc's anchor probes, the Exact / Exact+ circle enumeration, Exact+'s
// annulus filter); SubGrid answers those range queries in time proportional
// to the number of touched cells instead of the whole candidate set.
//
// The grid is also an id space. Build groups the indexed vertices by cell, and
// a vertex's index in that order — its position (IDs) — is dense, stable until
// the next Build, and close in memory to the positions of the vertices near
// it. A caller that runs many range queries and then walks adjacency among
// what each returned (the restricted k-core peel of internal/core) keys its
// per-vertex arrays by position and asks a Disk for positions, so a query's
// answer indexes those arrays directly.
package spatial

import (
	"math"

	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
)

// SubGrid is a uniform bucket grid over a subset of a graph's vertices,
// designed for the SAC query hot path: it is rebuilt once per query over the
// candidate set and probed by many circle range queries (Exact and Exact+
// enumerate O(|X|²)–O(|X|³) circles; AppAcc gathers a prefix per
// binary-search probe per anchor). It stores its buckets in CSR form — three
// flat slices reused across Build calls — so steady-state rebuilds allocate
// nothing and queries touch contiguous memory.
//
// A SubGrid snapshots the subset's locations at Build time; rebuild after
// location updates. It is not safe for concurrent use.
type SubGrid struct {
	minX, minY float64
	cell       float64 // cell edge length
	cols, rows int

	start []int32      // CSR offsets, len cols*rows+1; bucket c is items[start[c]:start[c+1]]
	ids   []graph.V    // vertex ids grouped by cell
	pts   []geom.Point // locations parallel to ids

	cellIdx []int32 // scratch: cell index per input vertex during Build
}

// Len returns the number of indexed vertices.
func (sg *SubGrid) Len() int { return len(sg.ids) }

// IDs returns the indexed vertices in cell order: IDs()[p] is the vertex at
// position p. The slice is the grid's own; it stands until the next Build.
func (sg *SubGrid) IDs() []graph.V { return sg.ids }

// Build indexes the current locations of vs in gr, aiming for roughly
// targetPerCell vertices per cell (<= 0 defaults to 4). Previous contents
// are discarded; backing storage is reused.
func (sg *SubGrid) Build(gr *graph.Graph, vs []graph.V, targetPerCell int) {
	if targetPerCell <= 0 {
		targetPerCell = 4
	}
	n := len(vs)
	sg.ids = sg.ids[:0]
	sg.pts = sg.pts[:0]
	if n == 0 {
		sg.cell = 1
		sg.cols, sg.rows = 1, 1
		sg.start = append(sg.start[:0], 0, 0)
		return
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, v := range vs {
		p := gr.Loc(v)
		minX = math.Min(minX, p.X)
		minY = math.Min(minY, p.Y)
		maxX = math.Max(maxX, p.X)
		maxY = math.Max(maxY, p.Y)
	}
	sg.minX, sg.minY = minX, minY
	w := maxX - minX
	h := maxY - minY
	if w <= 0 {
		w = 1e-9
	}
	if h <= 0 {
		h = 1e-9
	}
	cells := float64(n) / float64(targetPerCell)
	if cells < 1 {
		cells = 1
	}
	// Area-based sizing alone explodes the cell count on anisotropic input
	// (members sharing one coordinate make one extent collapse towards the
	// 1e-9 floor, so sqrt(w·h/cells) shrinks without bound); the w/cells and
	// h/cells terms keep each axis at O(cells) columns/rows, so the total
	// stays O(n) regardless of aspect ratio.
	sg.cell = math.Max(math.Sqrt(w*h/cells), math.Max(w, h)/cells)
	if sg.cell <= 0 || math.IsNaN(sg.cell) {
		sg.cell = math.Max(w, h)
	}
	sg.cols = int(w/sg.cell) + 1
	sg.rows = int(h/sg.cell) + 1
	nc := sg.cols * sg.rows

	// Counting sort into CSR: count, prefix-sum, place.
	sg.start = sg.start[:0]
	for i := 0; i <= nc; i++ {
		sg.start = append(sg.start, 0)
	}
	sg.cellIdx = sg.cellIdx[:0]
	for _, v := range vs {
		c := sg.cellOf(gr.Loc(v))
		sg.cellIdx = append(sg.cellIdx, int32(c))
		sg.start[c+1]++
	}
	for c := 0; c < nc; c++ {
		sg.start[c+1] += sg.start[c]
	}
	if cap(sg.ids) < n {
		sg.ids = make([]graph.V, n)
		sg.pts = make([]geom.Point, n)
	} else {
		sg.ids = sg.ids[:n]
		sg.pts = sg.pts[:n]
	}
	// start doubles as the placement cursor; shift it back afterwards.
	for i, v := range vs {
		c := sg.cellIdx[i]
		at := sg.start[c]
		sg.ids[at] = v
		sg.pts[at] = gr.Loc(v)
		sg.start[c]++
	}
	for c := nc; c > 0; c-- {
		sg.start[c] = sg.start[c-1]
	}
	sg.start[0] = 0
}

// col and row are the cell column of an x coordinate and the cell row of a y
// coordinate, clamped to the grid. Both are monotone, which Disk.Holds uses.
func (sg *SubGrid) col(x float64) int { return clampInt(int((x-sg.minX)/sg.cell), 0, sg.cols-1) }
func (sg *SubGrid) row(y float64) int { return clampInt(int((y-sg.minY)/sg.cell), 0, sg.rows-1) }

func (sg *SubGrid) cellOf(p geom.Point) int { return sg.row(p.Y)*sg.cols + sg.col(p.X) }

// InCircle appends every indexed vertex inside the closed disk c (with
// geom.Eps tolerance) to dst and returns dst.
func (sg *SubGrid) InCircle(c geom.Circle, dst []graph.V) []graph.V {
	d := sg.Disk(c)
	base := len(dst)
	dst = d.Positions(dst) // graph.V is int32: positions first, ids over them
	for i := base; i < len(dst); i++ {
		dst[i] = sg.ids[dst[i]]
	}
	return dst
}

// Disk is one closed disk prepared against a grid: the window of cells
// InCircle scans for it and the squared radius it tests with. Its methods
// speak positions, and all three agree with InCircle on exactly which
// vertices the disk holds — including the vertices InCircle leaves out
// because they pass the distance test only by the tolerance and sit in a cell
// outside the window. A Disk is valid until the grid's next Build.
type Disk struct {
	sg                 *SubGrid
	c                  geom.Point
	r2                 float64 // (R+Eps)²; negative for a disk that holds nothing
	x0, x1, y0, y1     float64 // the disk's bounding box, whose cells are the window
	loX, hiX, loY, hiY int
}

// Disk prepares c. A negative radius, like an empty grid, holds nothing.
func (sg *SubGrid) Disk(c geom.Circle) Disk {
	d := Disk{sg: sg, c: c.C, r2: -1, hiX: -1, hiY: -1}
	if c.R < 0 || len(sg.ids) == 0 {
		return d
	}
	d.x0, d.x1, d.y0, d.y1 = c.C.X-c.R, c.C.X+c.R, c.C.Y-c.R, c.C.Y+c.R
	d.loX, d.hiX, d.loY, d.hiY = sg.col(d.x0), sg.col(d.x1), sg.row(d.y0), sg.row(d.y1)
	d.r2 = (c.R + geom.Eps) * (c.R + geom.Eps)
	return d
}

// Positions appends the position of every vertex the disk holds to dst, in
// cell order, and returns dst.
func (d *Disk) Positions(dst []int32) []int32 {
	sg := d.sg
	for cy := d.loY; cy <= d.hiY; cy++ {
		row := cy * sg.cols
		for cx := d.loX; cx <= d.hiX; cx++ {
			lo, hi := sg.start[row+cx], sg.start[row+cx+1]
			for i := lo; i < hi; i++ {
				if sg.pts[i].Dist2(d.c) <= d.r2 {
					dst = append(dst, i)
				}
			}
		}
	}
	return dst
}

// Holds reports whether the disk holds the vertex at position pos. A vertex
// inside the bounding box is inside the window, col and row being monotone;
// only one that passes the distance test from outside the box has its cell
// looked up.
func (d *Disk) Holds(pos int32) bool {
	p := d.sg.pts[pos]
	if !(p.Dist2(d.c) <= d.r2) {
		return false
	}
	if p.X >= d.x0 && p.X <= d.x1 && p.Y >= d.y0 && p.Y <= d.y1 {
		return true
	}
	cx, cy := d.sg.col(p.X), d.sg.row(p.Y)
	return cx >= d.loX && cx <= d.hiX && cy >= d.loY && cy <= d.hiY
}

// Of appends the positions in from that the disk holds to dst, in from's
// order, and returns dst. When from is known to contain everything the
// caller wants of the disk, this replaces the scan of the window.
func (d *Disk) Of(from, dst []int32) []int32 {
	for _, pos := range from {
		if d.Holds(pos) {
			dst = append(dst, pos)
		}
	}
	return dst
}

// InAnnulus appends vertices with rInner <= dist(p, center) <= rOuter (with
// geom.Eps tolerance on both bounds) to dst and returns dst.
func (sg *SubGrid) InAnnulus(center geom.Point, rInner, rOuter float64, dst []graph.V) []graph.V {
	if rOuter < 0 || len(sg.ids) == 0 {
		return dst
	}
	loX := clampInt(int((center.X-rOuter-sg.minX)/sg.cell), 0, sg.cols-1)
	hiX := clampInt(int((center.X+rOuter-sg.minX)/sg.cell), 0, sg.cols-1)
	loY := clampInt(int((center.Y-rOuter-sg.minY)/sg.cell), 0, sg.rows-1)
	hiY := clampInt(int((center.Y+rOuter-sg.minY)/sg.cell), 0, sg.rows-1)
	out2 := (rOuter + geom.Eps) * (rOuter + geom.Eps)
	// An inner bound at or below the tolerance excludes nothing: squaring
	// (rInner - Eps) would flip a tiny negative bound positive and wrongly
	// drop near-center vertices.
	in2 := -1.0
	if rInner > geom.Eps {
		in2 = (rInner - geom.Eps) * (rInner - geom.Eps)
	}
	for cy := loY; cy <= hiY; cy++ {
		row := cy * sg.cols
		for cx := loX; cx <= hiX; cx++ {
			lo, hi := sg.start[row+cx], sg.start[row+cx+1]
			for i := lo; i < hi; i++ {
				d2 := sg.pts[i].Dist2(center)
				if d2 <= out2 && d2 >= in2 {
					dst = append(dst, sg.ids[i])
				}
			}
		}
	}
	return dst
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
