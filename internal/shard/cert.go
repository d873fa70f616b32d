package shard

import (
	"sync"

	"sacsearch/internal/graph"
)

// Cert decides, per query, whether a shard can answer alone — the exactness
// certificate behind the router's fast path.
//
// Every registered k-core algorithm's answer is a pure function of the
// global candidate set X = the connected component of q in the k-core of the
// whole graph, X's induced edges, and X's member locations. A shard only
// sees its own subgraph, so it cannot compute X directly — but it can bound
// it. The optimistic peel treats ghost vertices as unpeelable (their true
// degree includes edges this shard cannot see, so their survival must be
// assumed) and peels owned vertices below degree k as usual. Two facts make
// this a certificate:
//
//  1. Soundness of death: a vertex removed by the optimistic peel has fewer
//     than k neighbors even if every unseen edge survives, so it is not in
//     the global k-core. If q dies, ErrNoCommunity is the exact global
//     answer.
//  2. Soundness of containment: if no vertex in q's surviving owned
//     component has a ghost neighbor, the component is self-supporting —
//     every member is owned, every member's full adjacency is local, and
//     every member keeps degree ≥ k using only in-component edges. The
//     component therefore equals X, all its locations are
//     owner-authoritative, and the stock local Search result is identical
//     to a single-engine reference. Conversely, if any global candidate
//     lived outside this shard, the walk from q to it inside X would step
//     onto a ghost neighbor of a surviving member, so the certificate
//     correctly fails.
//
// When the certificate fails, Expand drives the router's scatter-gather: it
// returns the owned members of the seed components (each with authoritative
// location and full adjacency, reported by its owner) plus the frontier
// ghosts bordering them, which the router then seeds at their owning shards
// until the closure stops growing. The union is a superset of X with every
// induced edge covered, so a reference Search over the assembled subgraph
// returns the exact global answer.
//
// The peel is purely topological, so cached state is keyed on the snapshot's
// topology epoch and survives unlimited location churn.
type Cert struct {
	g  *graph.Graph
	sv *Serving
	// maxDeg is the largest degree of an owned vertex: at any k above it the
	// peel removes every owned vertex, so the outcome is known without one.
	maxDeg int

	mu     sync.Mutex
	states []*kState // most recently used first, at most maxStates
}

// maxStates is how many built per-k states a certificate keeps, least
// recently used out. A state is 4n bytes and k arrives from outside
// (/v1/shard/search and /v1/shard/expand check only k ≥ 1), so what is
// retained must not follow what was asked. The paper's Table 5 sweeps
// k ∈ {4, 7, 10, 13, 16}; 8 holds every k real traffic uses at once.
const maxStates = 8

// kState is one k's optimistic-peel outcome. Components cover owned
// survivors only — a ghost is not a component member (it can border several
// components at once) but flips ghosty on every component it touches.
type kState struct {
	k      int
	comp   []int32 // per vertex: component id, -1 = non-owned or peeled
	ghosty []bool  // per component: some member has a ghost neighbor
}

// NewCert prepares certificates for one immutable (frozen snapshot) shard
// graph. Concurrent callers share the lazily built per-k states.
func NewCert(g *graph.Graph, sv *Serving) *Cert {
	c := &Cert{g: g, sv: sv}
	id := uint16(sv.ID)
	for v, o := range sv.Map.Owner {
		if o == id {
			c.maxDeg = max(c.maxDeg, g.Degree(graph.V(v)))
		}
	}
	return c
}

// stateFor returns k's peel outcome, or nil when k exceeds every owned
// degree and nothing owned survives.
func (c *Cert) stateFor(k int) *kState {
	if k > c.maxDeg {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, st := range c.states {
		if st.k == k {
			copy(c.states[1:i+1], c.states[:i])
			c.states[0] = st
			return st
		}
	}
	st := c.build(k)
	if len(c.states) < maxStates {
		c.states = append(c.states, nil)
	}
	copy(c.states[1:], c.states) // the least recently used state falls off the end
	c.states[0] = st
	return st
}

// build runs the optimistic peel for k and labels the surviving owned
// components.
func (c *Cert) build(k int) *kState {
	n := c.g.NumVertices()
	deg := make([]int32, n)
	removed := make([]bool, n)
	queue := make([]graph.V, 0, 64)
	owner := c.sv.Map.Owner
	id := uint16(c.sv.ID)
	for v := 0; v < n; v++ {
		if owner[v] != id {
			continue
		}
		deg[v] = int32(c.g.Degree(graph.V(v)))
		if deg[v] < int32(k) {
			removed[v] = true
			queue = append(queue, graph.V(v))
		}
	}
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, w := range c.g.Neighbors(u) {
			if owner[w] != id || removed[w] {
				continue
			}
			deg[w]--
			if deg[w] < int32(k) {
				removed[w] = true
				queue = append(queue, w)
			}
		}
	}

	st := &kState{k: k, comp: make([]int32, n)}
	for v := range st.comp {
		st.comp[v] = -1
	}
	var stack []graph.V
	next := int32(0)
	for v := 0; v < n; v++ {
		if owner[v] != id || removed[v] || st.comp[v] != -1 {
			continue
		}
		cid := next
		next++
		ghost := false
		st.comp[v] = cid
		stack = append(stack[:0], graph.V(v))
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range c.g.Neighbors(u) {
				if owner[w] != id {
					ghost = true // any materialized non-owned neighbor is a ghost
					continue
				}
				if !removed[w] && st.comp[w] == -1 {
					st.comp[w] = cid
					stack = append(stack, w)
				}
			}
		}
		st.ghosty = append(st.ghosty, ghost)
	}
	return st
}

// Contained reports whether q survives this shard's optimistic k-peel
// (alive) and, if so, whether its component is ghost-free (certified): a
// certified answer from the stock local searcher is exactly the global one,
// and a dead q is certified ErrNoCommunity.
func (c *Cert) Contained(q graph.V, k int) (alive, certified bool) {
	st := c.stateFor(k)
	if st == nil || st.comp[q] < 0 {
		return false, true
	}
	return true, !st.ghosty[st.comp[q]]
}

// Expand returns the owned members of the optimistic k-core components
// containing the given seeds, plus the frontier ghosts bordering those
// components. Seeds that died in the peel (or are not owned here)
// contribute nothing — a vertex dead under the optimistic peel is globally
// dead. Members come back in ascending vertex order.
func (c *Cert) Expand(seeds []graph.V, k int) (members, frontier []graph.V) {
	st := c.stateFor(k)
	if st == nil {
		return nil, nil
	}
	want := make(map[int32]bool, len(seeds))
	for _, s := range seeds {
		if int(s) < 0 || int(s) >= len(st.comp) {
			continue
		}
		if cid := st.comp[s]; cid >= 0 {
			want[cid] = true
		}
	}
	if len(want) == 0 {
		return nil, nil
	}
	owner := c.sv.Map.Owner
	id := uint16(c.sv.ID)
	inFrontier := make(map[graph.V]bool)
	for v := 0; v < len(st.comp); v++ {
		cid := st.comp[v]
		if cid < 0 || !want[cid] {
			continue
		}
		members = append(members, graph.V(v))
		for _, w := range c.g.Neighbors(graph.V(v)) {
			if owner[w] != id && !inFrontier[w] {
				inFrontier[w] = true
				frontier = append(frontier, w)
			}
		}
	}
	return members, frontier
}
