// Package kcore implements the k-core substrate (Definition 1 of the paper):
// the linear-time core decomposition of Batagelj and Zaversnik [3], extraction
// of the connected k-ĉore containing a query vertex, and — the workhorse of
// every SAC search algorithm — a reusable Peeler that answers "does G[S]
// contain a k-ĉore with q?" for arbitrary candidate sets S without
// allocating.
package kcore

import (
	"sacsearch/internal/graph"
)

// Decompose returns the core number of every vertex using the O(m)
// bucket-queue algorithm of Batagelj–Zaversnik.
func Decompose(g *graph.Graph) []int32 {
	n := g.NumVertices()
	core := make([]int32, n)
	if n == 0 {
		return core
	}
	deg := make([]int32, n)
	maxDeg := int32(0)
	for v := 0; v < n; v++ {
		d := int32(g.Degree(graph.V(v)))
		deg[v] = d
		if d > maxDeg {
			maxDeg = d
		}
	}
	// Bucket sort vertices by degree.
	bin := make([]int32, maxDeg+2)
	for v := 0; v < n; v++ {
		bin[deg[v]]++
	}
	start := int32(0)
	for d := int32(0); d <= maxDeg; d++ {
		cnt := bin[d]
		bin[d] = start
		start += cnt
	}
	pos := make([]int32, n)  // position of vertex in vert
	vert := make([]int32, n) // vertices sorted by current degree
	for v := 0; v < n; v++ {
		pos[v] = bin[deg[v]]
		vert[pos[v]] = int32(v)
		bin[deg[v]]++
	}
	for d := maxDeg; d > 0; d-- {
		bin[d] = bin[d-1]
	}
	bin[0] = 0

	for i := 0; i < n; i++ {
		v := vert[i]
		core[v] = deg[v]
		for _, u := range g.Neighbors(v) {
			if deg[u] <= deg[v] {
				continue
			}
			// Move u one bucket down: swap it with the first vertex of its
			// current bucket, then shrink the bucket boundary.
			du := deg[u]
			pu := pos[u]
			pw := bin[du]
			w := vert[pw]
			if u != w {
				pos[u] = pw
				vert[pu] = w
				pos[w] = pu
				vert[pw] = u
			}
			bin[du]++
			deg[u]--
		}
	}
	return core
}

// CommunityOf returns the vertices of the connected k-ĉore containing q —
// the community the Global baseline [29] returns — or nil when q's core
// number is below k. core must be the output of Decompose for g.
func CommunityOf(g *graph.Graph, core []int32, q graph.V, k int) []graph.V {
	if int(core[q]) < k {
		return nil
	}
	visited := graph.NewMarker(g.NumVertices())
	return graph.BFSFrom(g, q, func(v graph.V) bool { return int(core[v]) >= k }, visited, nil)
}

// Peeler answers restricted feasibility queries: given a candidate vertex
// set S and a query vertex q, find the connected subgraph of G[S] that
// contains q and has minimum degree ≥ k (if any). A Peeler holds scratch
// buffers sized to the graph so repeated calls do not allocate; it is not
// safe for concurrent use.
type Peeler struct {
	g       *graph.Graph
	inS     *graph.Marker // members of the candidate set still alive
	deg     []int32       // degree within the surviving candidate set
	queue   []graph.V     // peeling queue
	visited *graph.Marker // BFS visited set
	comp    []graph.V     // BFS output buffer
}

// NewPeeler creates a Peeler for g.
func NewPeeler(g *graph.Graph) *Peeler {
	n := g.NumVertices()
	return &Peeler{
		g:       g,
		inS:     graph.NewMarker(n),
		deg:     make([]int32, n),
		queue:   make([]graph.V, 0, 1024),
		visited: graph.NewMarker(n),
		comp:    make([]graph.V, 0, 1024),
	}
}

// SetGraph rebinds the Peeler to another graph with the same vertex count —
// the snapshot-serving path hands pooled workers a freshly published clone,
// and vertex counts never change, so the scratch buffers carry over. A
// different vertex count panics: that is a different graph, not a snapshot.
func (p *Peeler) SetGraph(g *graph.Graph) {
	if g.NumVertices() != p.inS.Len() {
		panic("kcore: SetGraph with a different vertex count")
	}
	p.g = g
}

// KCoreWithin returns the vertices of the connected k-core of G[S]
// containing q, or nil when none exists. The returned slice is owned by the
// Peeler and valid until the next call; callers that retain it must copy.
//
// Cost is O(Σ_{v∈S} deg_G(v)): linear in the candidate set's total degree.
func (p *Peeler) KCoreWithin(S []graph.V, q graph.V, k int) []graph.V {
	g := p.g
	p.inS.Reset()
	qSeen := false
	for _, v := range S {
		p.inS.Mark(v)
		if v == q {
			qSeen = true
		}
	}
	if !qSeen {
		return nil
	}
	// Degrees within S.
	p.queue = p.queue[:0]
	for _, v := range S {
		d := int32(0)
		for _, u := range g.Neighbors(v) {
			if p.inS.Has(u) {
				d++
			}
		}
		p.deg[v] = d
		if d < int32(k) {
			p.queue = append(p.queue, v)
		}
	}
	// Peel: delete vertices whose in-S degree dropped below k.
	for head := 0; head < len(p.queue); head++ {
		v := p.queue[head]
		if !p.inS.Has(v) {
			continue
		}
		p.inS.Unmark(v)
		if v == q {
			return nil // the query vertex got peeled: no feasible community
		}
		for _, u := range g.Neighbors(v) {
			if !p.inS.Has(u) {
				continue
			}
			p.deg[u]--
			if p.deg[u] == int32(k)-1 {
				p.queue = append(p.queue, u)
			}
		}
	}
	if !p.inS.Has(q) {
		return nil
	}
	// Connected component of q within the survivors. Because every survivor
	// has ≥ k surviving neighbors and those neighbors are in the same
	// component, the component itself has minimum degree ≥ k.
	p.comp = graph.BFSFrom(g, q, p.inS.Has, p.visited, p.comp[:0])
	return p.comp
}

// Feasible reports whether G[S] contains a k-ĉore with q, without
// materializing it beyond the Peeler's scratch space.
func (p *Peeler) Feasible(S []graph.V, q graph.V, k int) bool {
	return p.KCoreWithin(S, q, k) != nil
}
