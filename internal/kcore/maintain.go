package kcore

import (
	"sacsearch/internal/graph"
)

// Incremental core maintenance. Re-peeling the whole graph after every edge
// change costs O(m); the streaming insight (Sarıyüce et al., "Streaming
// Algorithms for k-Core Decomposition") is that one edge change moves core
// numbers by at most 1, and only within the subcore — the set of vertices
// with core number K = min(core(u), core(v)) reachable from the changed
// edge's endpoints through vertices of core exactly K. A Maintainer walks
// that subcore, recomputes support locally, and promotes or demotes just the
// vertices whose numbers actually change, so maintenance cost tracks the
// size of the affected community rather than the graph.
//
// The Maintainer updates the core slice in place. That slice may be shared —
// core.Searcher clones share one decomposition — so a single Maintainer
// update refreshes every searcher at once.

// Maintainer keeps a core decomposition current across edge insertions and
// removals. It owns scratch sized to the graph, so repeated updates do not
// allocate; it is not safe for concurrent use (callers serialize updates
// with queries).
type Maintainer struct {
	g    *graph.Graph
	core []int32

	cd      []int32       // candidate support counters
	inC     *graph.Marker // candidate-set membership
	cand    []graph.V     // candidate set (BFS order)
	queue   []graph.V     // BFS / peeling queue
	visited *graph.Marker
}

// NewMaintainer wraps g's existing decomposition. core must be the output of
// Decompose for g's current topology (len n); it is updated in place by
// InsertEdge/RemoveEdge, so slices shared with other consumers stay current.
func NewMaintainer(g *graph.Graph, core []int32) *Maintainer {
	n := g.NumVertices()
	return &Maintainer{
		g:       g,
		core:    core,
		cd:      make([]int32, n),
		inC:     graph.NewMarker(n),
		cand:    make([]graph.V, 0, 256),
		queue:   make([]graph.V, 0, 256),
		visited: graph.NewMarker(n),
	}
}

// Core returns the maintained core-number slice (shared, updated in place).
func (m *Maintainer) Core() []int32 { return m.core }

// InsertEdge adds {u, v} to the graph and incrementally updates core
// numbers. It reports whether the edge set changed (false for self-loops and
// already-present edges, which leave the decomposition untouched).
func (m *Maintainer) InsertEdge(u, v graph.V) bool {
	if !m.g.AddEdge(u, v) {
		return false
	}
	// Only vertices with core number K = min(core(u), core(v)) can be
	// promoted, and the promoted set is connected to the new edge through
	// core-K vertices: collect it by BFS from whichever endpoints sit at K.
	k := m.core[u]
	if m.core[v] < k {
		k = m.core[v]
	}
	m.collectSubcore(k, u, v)

	// Support within the candidate set: a candidate reaches core K+1 iff it
	// keeps ≥ K+1 neighbors that will also have core ≥ K+1 — neighbors
	// already above K, or fellow candidates that survive. Peel candidates
	// whose support falls below K+1; survivors are promoted.
	m.queue = m.queue[:0]
	for _, c := range m.cand {
		d := int32(0)
		for _, w := range m.g.Neighbors(c) {
			if m.core[w] > k || m.inC.Has(w) {
				d++
			}
		}
		m.cd[c] = d
		if d < k+1 {
			m.queue = append(m.queue, c)
		}
	}
	for head := 0; head < len(m.queue); head++ {
		c := m.queue[head]
		if !m.inC.Has(c) {
			continue
		}
		m.inC.Unmark(c)
		for _, w := range m.g.Neighbors(c) {
			if m.inC.Has(w) {
				m.cd[w]--
				if m.cd[w] == k {
					m.queue = append(m.queue, w)
				}
			}
		}
	}
	for _, c := range m.cand {
		if m.inC.Has(c) {
			m.core[c] = k + 1
		}
	}
	return true
}

// RemoveEdge deletes {u, v} from the graph and incrementally updates core
// numbers. It reports whether the edge existed.
func (m *Maintainer) RemoveEdge(u, v graph.V) bool {
	ku, kv := int32(0), int32(0)
	if u != v && u >= 0 && v >= 0 && int(u) < m.g.NumVertices() && int(v) < m.g.NumVertices() {
		ku, kv = m.core[u], m.core[v]
	}
	if !m.g.RemoveEdge(u, v) {
		return false
	}
	k := ku
	if kv < k {
		k = kv
	}
	// Only core-K vertices connected to an endpoint through core-K vertices
	// can be demoted (an endpoint above K never counted the other towards
	// its support). The demotion cascade stays inside that subcore.
	m.collectSubcore(k, u, v)

	// A candidate keeps core K iff it retains ≥ K neighbors of core ≥ K;
	// demotions cascade through the candidate set. Demoted vertices land at
	// exactly K-1 (a single edge removal moves core numbers by at most 1).
	m.queue = m.queue[:0]
	for _, c := range m.cand {
		d := int32(0)
		for _, w := range m.g.Neighbors(c) {
			if m.core[w] >= k {
				d++
			}
		}
		m.cd[c] = d
		if d < k {
			m.queue = append(m.queue, c)
		}
	}
	for head := 0; head < len(m.queue); head++ {
		c := m.queue[head]
		if !m.inC.Has(c) {
			continue
		}
		m.inC.Unmark(c)
		m.core[c] = k - 1
		for _, w := range m.g.Neighbors(c) {
			if m.inC.Has(w) {
				m.cd[w]--
				if m.cd[w] == k-1 {
					m.queue = append(m.queue, w)
				}
			}
		}
	}
	return true
}

// collectSubcore fills cand/inC with the vertices of core number exactly k
// reachable from the endpoints (those at k) through core-k vertices, in the
// graph's current topology.
func (m *Maintainer) collectSubcore(k int32, u, v graph.V) {
	m.inC.Reset()
	m.visited.Reset()
	m.cand = m.cand[:0]
	m.queue = m.queue[:0]
	for _, r := range [2]graph.V{u, v} {
		if m.core[r] == k && !m.visited.Has(r) {
			m.visited.Mark(r)
			m.queue = append(m.queue, r)
		}
	}
	for head := 0; head < len(m.queue); head++ {
		c := m.queue[head]
		m.inC.Mark(c)
		m.cand = append(m.cand, c)
		for _, w := range m.g.Neighbors(c) {
			if m.core[w] == k && !m.visited.Has(w) {
				m.visited.Mark(w)
				m.queue = append(m.queue, w)
			}
		}
	}
}
