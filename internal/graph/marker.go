package graph

// Marker is a versioned membership set over the vertex ids [0, n). Reset is
// O(1): it bumps the epoch instead of clearing the array. Every SAC search
// algorithm performs thousands of feasibility checks per query, each over a
// different candidate set, and the O(1) reset keeps those checks
// allocation-free.
type Marker struct {
	stamp []uint32
	epoch uint32
}

// NewMarker creates a marker for n vertices; all vertices start unmarked.
func NewMarker(n int) *Marker {
	return &Marker{stamp: make([]uint32, n), epoch: 1}
}

// Reset unmarks every vertex in O(1).
func (m *Marker) Reset() {
	m.epoch++
	if m.epoch == 0 { // epoch wrapped: clear for real, once every 2^32 resets
		for i := range m.stamp {
			m.stamp[i] = 0
		}
		m.epoch = 1
	}
}

// Mark adds v to the set.
func (m *Marker) Mark(v V) { m.stamp[v] = m.epoch }

// Unmark removes v from the set.
func (m *Marker) Unmark(v V) { m.stamp[v] = 0 }

// Has reports whether v is in the set.
func (m *Marker) Has(v V) bool { return m.stamp[v] == m.epoch }

// Len returns the capacity (number of vertex slots), not the current
// cardinality.
func (m *Marker) Len() int { return len(m.stamp) }

// MarkAll marks every vertex in vs.
func (m *Marker) MarkAll(vs []V) {
	for _, v := range vs {
		m.stamp[v] = m.epoch
	}
}

// BFSFrom runs a breadth-first search from src over the subgraph induced by
// the vertices for which include returns true (src itself must be included).
// It appends visited vertices to dst in visit order and returns it. The
// provided marker is reset and used for the visited set.
func BFSFrom(g *Graph, src V, include func(V) bool, visited *Marker, dst []V) []V {
	if !include(src) {
		return dst
	}
	visited.Reset()
	visited.Mark(src)
	dst = append(dst, src)
	for head := len(dst) - 1; head < len(dst); head++ {
		v := dst[head]
		for _, u := range g.Neighbors(v) {
			if !visited.Has(u) && include(u) {
				visited.Mark(u)
				dst = append(dst, u)
			}
		}
	}
	return dst
}
