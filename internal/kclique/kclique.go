// Package kclique implements the k-clique structure substrate. The paper
// notes (Sections 1 and 3) that the minimum-degree structure cohesiveness of
// SAC search "can be easily replaced by other metrics like k-truss and
// k-clique"; this package provides the k-clique replacement in the classical
// clique-percolation sense: a k-clique community is the union of all
// k-cliques reachable from one another through adjacent k-cliques, where two
// k-cliques are adjacent when they share k-1 vertices.
//
// Both entry points work online from the query vertex — they explore clique
// space outward from q and never touch parts of the graph the community
// cannot reach, matching the paper's online-search setting.
//
// For k ≤ 2 the definition degenerates gracefully: 2-cliques are edges and
// sharing one vertex is plain connectivity, so the community is q's
// connected component; a 1-clique is a single vertex, so {q} itself
// qualifies.
package kclique

import (
	"encoding/binary"
	"sort"

	"sacsearch/internal/graph"
)

// cliqueKey packs a sorted vertex slice into a comparable map key.
func cliqueKey(c []graph.V) string {
	b := make([]byte, 4*len(c))
	for i, v := range c {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
	}
	return string(b)
}

// accept reports whether v may participate in any k-clique of the current
// search: it must be unrestricted (or inside S) and have enough neighbors.
type accept func(v graph.V) bool

// commonNeighbors intersects the sorted neighbor lists of all vertices in
// set, keeping only accepted vertices. dst is reused.
func commonNeighbors(g *graph.Graph, set []graph.V, ok accept, dst []graph.V) []graph.V {
	dst = dst[:0]
	if len(set) == 0 {
		return dst
	}
	for _, w := range g.Neighbors(set[0]) {
		if ok(w) {
			dst = append(dst, w)
		}
	}
	for _, u := range set[1:] {
		if len(dst) == 0 {
			return dst
		}
		nb := g.Neighbors(u)
		keep := dst[:0]
		i, j := 0, 0
		for i < len(dst) && j < len(nb) {
			switch {
			case dst[i] < nb[j]:
				i++
			case dst[i] > nb[j]:
				j++
			default:
				keep = append(keep, dst[i])
				i++
				j++
			}
		}
		dst = keep
	}
	return dst
}

// cliquesContaining enumerates every k-clique of g that contains q, invoking
// emit with a sorted vertex slice (reused between calls — copy to keep).
// Vertices are filtered through ok.
func cliquesContaining(g *graph.Graph, q graph.V, k int, ok accept, emit func(c []graph.V)) {
	if k <= 1 {
		emit([]graph.V{q})
		return
	}
	base := make([]graph.V, 1, k)
	base[0] = q
	var rec func(cands []graph.V)
	scratch := make([][]graph.V, k) // per-depth candidate buffers
	depth := 0
	rec = func(cands []graph.V) {
		if len(base) == k {
			c := append([]graph.V(nil), base...)
			sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
			emit(c)
			return
		}
		need := k - len(base)
		for i, v := range cands {
			if len(cands)-i < need {
				return // not enough candidates left
			}
			base = append(base, v)
			// Next candidates: those after v that are adjacent to v too.
			depth++
			if scratch[depth] == nil {
				scratch[depth] = make([]graph.V, 0, len(cands))
			}
			next := scratch[depth][:0]
			nb := g.Neighbors(v)
			a, b := i+1, 0
			for a < len(cands) && b < len(nb) {
				switch {
				case cands[a] < nb[b]:
					a++ // cands[a] is not adjacent to v
				case cands[a] > nb[b]:
					b++
				default:
					next = append(next, cands[a])
					a++
					b++
				}
			}
			scratch[depth] = next
			rec(next)
			depth--
			base = base[:len(base)-1]
		}
	}
	first := make([]graph.V, 0, g.Degree(q))
	for _, v := range g.Neighbors(q) {
		if ok(v) {
			first = append(first, v)
		}
	}
	rec(first)
}

// percolate runs the clique-space BFS: starting from every k-clique
// containing q, repeatedly move to k-cliques sharing k-1 vertices, and
// return the union of member vertices (BFS discovery order), or nil when q
// is in no k-clique.
func percolate(g *graph.Graph, q graph.V, k int, ok accept) []graph.V {
	if k <= 1 {
		return []graph.V{q}
	}
	if k == 2 {
		return componentOf(g, q, ok)
	}
	seen := make(map[string]bool)
	var queue [][]graph.V
	cliquesContaining(g, q, k, ok, func(c []graph.V) {
		key := cliqueKey(c)
		if !seen[key] {
			seen[key] = true
			queue = append(queue, append([]graph.V(nil), c...))
		}
	})
	if len(queue) == 0 {
		return nil
	}
	inComm := graph.NewMarker(g.NumVertices())
	var members []graph.V
	addMembers := func(c []graph.V) {
		for _, v := range c {
			if !inComm.Has(v) {
				inComm.Mark(v)
				members = append(members, v)
			}
		}
	}
	sub := make([]graph.V, 0, k-1)
	next := make([]graph.V, k)
	var common []graph.V
	for head := 0; head < len(queue); head++ {
		c := queue[head]
		addMembers(c)
		// Each (k-1)-subset of c, i.e. c minus one member.
		for skip := 0; skip < k; skip++ {
			sub = sub[:0]
			for i, v := range c {
				if i != skip {
					sub = append(sub, v)
				}
			}
			common = commonNeighbors(g, sub, ok, common)
			for _, w := range common {
				if w == c[skip] {
					continue // reconstructs c itself
				}
				// New clique = sub + {w}, kept sorted by insertion.
				next = next[:0]
				inserted := false
				for _, v := range sub {
					if !inserted && w < v {
						next = append(next, w)
						inserted = true
					}
					next = append(next, v)
				}
				if !inserted {
					next = append(next, w)
				}
				key := cliqueKey(next)
				if !seen[key] {
					seen[key] = true
					queue = append(queue, append([]graph.V(nil), next...))
				}
			}
		}
	}
	return members
}

// componentOf returns q's connected component over accepted vertices, or
// nil when q has no accepted neighbor (it is then in no 2-clique).
func componentOf(g *graph.Graph, q graph.V, ok accept) []graph.V {
	hasAccepted := false
	for _, u := range g.Neighbors(q) {
		if ok(u) {
			hasAccepted = true
			break
		}
	}
	if !hasAccepted {
		return nil
	}
	visited := graph.NewMarker(g.NumVertices())
	visited.Mark(q)
	out := []graph.V{q}
	for head := 0; head < len(out); head++ {
		for _, u := range g.Neighbors(out[head]) {
			if ok(u) && !visited.Has(u) {
				visited.Mark(u)
				out = append(out, u)
			}
		}
	}
	return out
}

// CommunityOf returns the vertices of the k-clique community containing q in
// the whole graph, or nil when q belongs to no k-clique. Vertices with
// degree < k-1 are skipped up front (they cannot be in any k-clique).
func CommunityOf(g *graph.Graph, q graph.V, k int) []graph.V {
	if k <= 1 {
		return []graph.V{q}
	}
	ok := func(v graph.V) bool { return g.Degree(v) >= k-1 }
	if !ok(q) {
		return nil
	}
	return percolate(g, q, k, ok)
}

// Checker answers restricted k-clique feasibility queries, mirroring
// kcore.Peeler and ktruss.Checker: given candidate set S and query q, return
// the k-clique community of G[S] containing q, or nil. It holds scratch
// space; not safe for concurrent use.
type Checker struct {
	g   *graph.Graph
	inS *graph.Marker
}

// NewChecker creates a Checker for g.
func NewChecker(g *graph.Graph) *Checker {
	return &Checker{g: g, inS: graph.NewMarker(g.NumVertices())}
}

// SetGraph rebinds the Checker to another graph with the same vertex count
// (snapshot serving hands workers freshly published clones). A different
// vertex count panics.
func (c *Checker) SetGraph(g *graph.Graph) {
	if g.NumVertices() != c.inS.Len() {
		panic("kclique: SetGraph with a different vertex count")
	}
	c.g = g
}

// KCliqueWithin returns the vertices of the k-clique community of G[S]
// containing q, or nil. The returned slice is freshly allocated per call
// (clique percolation has no incremental scratch worth keeping).
func (c *Checker) KCliqueWithin(S []graph.V, q graph.V, k int) []graph.V {
	c.inS.Reset()
	qSeen := false
	for _, v := range S {
		c.inS.Mark(v)
		if v == q {
			qSeen = true
		}
	}
	if !qSeen {
		return nil
	}
	if k <= 1 {
		return []graph.V{q}
	}
	ok := func(v graph.V) bool { return c.inS.Has(v) }
	return percolate(c.g, q, k, ok)
}
