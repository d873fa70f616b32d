// Package shard partitions a spatial graph into per-shard subgraphs for the
// scatter-gather serving topology (cmd/sacrouter over N sacserver shards).
//
// The partitioner is spatial and deterministic: vertices are bucketed by a
// uniform grid over their bounding box (gridCells), cells are walked in
// row-major order, and contiguous runs of cells are assigned to shards
// greedily so vertex counts stay balanced. SAC queries are spatially
// local — the answer lives inside a small circle around q — so grid-contiguous
// shards keep most candidate communities inside one shard.
//
// Every shard subgraph keeps the full global vertex-id space (vertices owned
// elsewhere are simply isolated), so the snapshot engine, WAL, checkpoints
// and replication all run on it unchanged and no id remapping exists
// anywhere. Edges with at least one owned endpoint are materialized; the
// non-owned endpoint of such a cut edge is a ghost vertex: its adjacency is
// partial and its location is frozen at partition time, which is safe because
// no certified answer ever reads a ghost's location (see cert.go) and the
// router's slow path re-reads every vertex from its owning shard.
package shard

import (
	"errors"
	"fmt"
	"math"

	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
)

// cellsPerShard is the grid granularity target: enough cells per shard that
// the greedy walk can balance vertex counts, few enough that cells stay
// spatially meaningful.
const cellsPerShard = 64

// Map is a shard assignment: exactly one owning shard per vertex, plus the
// edge accounting the router needs to report global totals.
type Map struct {
	Shards int
	N      int // global vertex count
	// Edges is the global undirected edge count at partition time.
	Edges int
	// CrossEdges is how many of those edges have endpoints on two different
	// shards (each such edge is materialized on both shards, with a ghost
	// endpoint on each side).
	CrossEdges int
	// Owner maps each vertex to its owning shard.
	Owner []uint16
}

// OwnerOf returns the shard owning v.
func (m *Map) OwnerOf(v graph.V) int { return int(m.Owner[v]) }

// OwnedCount returns how many vertices shard id owns.
func (m *Map) OwnedCount(id int) int {
	c := 0
	for _, o := range m.Owner {
		if int(o) == id {
			c++
		}
	}
	return c
}

// Partition assigns every vertex of g to one of the given number of shards.
// The assignment is a pure function of the vertex locations and shard count:
// the same graph (or a Clone of it) partitioned with the same count yields an
// identical Map, so shards cut on different machines from the same graph file
// agree.
func Partition(g *graph.Graph, shards int) (*Map, error) {
	n := g.NumVertices()
	if shards < 1 {
		return nil, errors.New("shard: shard count must be >= 1")
	}
	if shards > 1<<16 {
		return nil, fmt.Errorf("shard: shard count %d exceeds the format limit %d", shards, 1<<16)
	}
	if n == 0 {
		return nil, errors.New("shard: cannot partition an empty graph")
	}

	target := n / (shards * cellsPerShard)
	if target < 1 {
		target = 1
	}
	cellOf, ncells := gridCells(g.Locs(), target)
	count := make([]int, ncells)
	for _, c := range cellOf {
		count[c]++
	}

	cellOwner := make([]uint16, ncells)
	cur := 0
	curCount := 0
	remaining := n
	remainingShards := shards
	quota := (remaining + remainingShards - 1) / remainingShards
	for idx, c := range count {
		cellOwner[idx] = uint16(cur)
		curCount += c
		remaining -= c
		if curCount >= quota && cur < shards-1 {
			cur++
			curCount = 0
			remainingShards--
			if remaining > 0 {
				quota = (remaining + remainingShards - 1) / remainingShards
			}
		}
	}
	owner := make([]uint16, n)
	for v, c := range cellOf {
		owner[v] = cellOwner[c]
	}

	m := &Map{Shards: shards, N: n, Owner: owner}
	for u := 0; u < n; u++ {
		for _, w := range g.Neighbors(graph.V(u)) {
			if int(w) <= u {
				continue
			}
			m.Edges++
			if owner[u] != owner[w] {
				m.CrossEdges++
			}
		}
	}
	return m, nil
}

// gridCells buckets pts (non-empty) into a uniform grid of square cells over
// their bounding box, sized for roughly perCell points each, and returns
// every point's row-major cell index with the cell count. The sizing is part
// of the shard-map format in all but name: shards cut from one graph file on
// different machines agree only while it stays as it is (TestPartitionGolden).
func gridCells(pts []geom.Point, perCell int) (cellOf []int32, ncells int) {
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, p := range pts {
		minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
		minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
	}
	w, h := maxX-minX, maxY-minY
	if w <= 0 {
		w = 1e-9
	}
	if h <= 0 {
		h = 1e-9
	}
	cells := math.Max(float64(len(pts))/float64(perCell), 1)
	cell := math.Sqrt(w * h / cells) // square-ish: cols·rows ≈ cells
	if cell <= 0 || math.IsNaN(cell) {
		cell = math.Max(w, h)
	}
	cols, rows := int(w/cell)+1, int(h/cell)+1
	cellOf = make([]int32, len(pts))
	for i, p := range pts {
		cx := max(0, min(int((p.X-minX)/cell), cols-1))
		cy := max(0, min(int((p.Y-minY)/cell), rows-1))
		cellOf[i] = int32(cy*cols + cx)
	}
	return cellOf, cols * rows
}

// Subgraph extracts shard id's serving graph: the full global vertex-id
// space, every edge with at least one endpoint owned by id, and every
// location copied as of g's current state. Vertices owned elsewhere are
// either ghosts (endpoints of cut edges, partial adjacency) or isolated.
func Subgraph(g *graph.Graph, m *Map, id int) (*graph.Graph, error) {
	if id < 0 || id >= m.Shards {
		return nil, fmt.Errorf("shard: id %d out of range [0,%d)", id, m.Shards)
	}
	if g.NumVertices() != m.N {
		return nil, fmt.Errorf("shard: graph has %d vertices, map covers %d", g.NumVertices(), m.N)
	}
	b := graph.NewBuilder(m.N)
	for u := 0; u < m.N; u++ {
		for _, w := range g.Neighbors(graph.V(u)) {
			if int(w) <= u {
				continue
			}
			if int(m.Owner[u]) == id || int(m.Owner[w]) == id {
				b.AddEdge(graph.V(u), w)
			}
		}
	}
	for v := 0; v < m.N; v++ {
		b.SetLoc(graph.V(v), g.Loc(graph.V(v)))
	}
	return b.Build(), nil
}

// Serving is one shard's view of the topology: the map plus its own id.
type Serving struct {
	Map *Map
	ID  int
}

// NewServing validates id against m.
func NewServing(m *Map, id int) (*Serving, error) {
	if m == nil {
		return nil, errors.New("shard: nil map")
	}
	if id < 0 || id >= m.Shards {
		return nil, fmt.Errorf("shard: id %d out of range [0,%d)", id, m.Shards)
	}
	return &Serving{Map: m, ID: id}, nil
}

// Owns reports whether this shard owns v.
func (s *Serving) Owns(v graph.V) bool {
	return int(v) >= 0 && int(v) < s.Map.N && int(s.Map.Owner[v]) == s.ID
}

// Counts returns how many vertices this shard owns and how many ghosts
// (non-owned vertices with materialized edges) its graph g carries.
func (s *Serving) Counts(g *graph.Graph) (owned, ghosts int) {
	for v := 0; v < g.NumVertices(); v++ {
		if s.Owns(graph.V(v)) {
			owned++
		} else if g.Degree(graph.V(v)) > 0 {
			ghosts++
		}
	}
	return owned, ghosts
}
