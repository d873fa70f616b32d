package core

import (
	"math"
	"slices"

	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
	"sacsearch/internal/spatial"
)

// Circle-subset feasibility. AppAcc's anchor probes and the Exact / Exact+
// circle scans all ask one question, thousands of times a query: which
// connected k-structure holding q lies among the working set's vertices
// inside this circle? The working set — S for AppAcc and Exact+, X for Exact,
// the candidate prefix for the lens search — is indexed once per query
// (indexWorkingSet) and every such question goes through circleFeasible.
//
// For the k-core metric the per-query grid is also the id space of the
// answer. A vertex's position in the grid's cell order keys a
// compact CSR of the working set's induced subgraph, cut from the cache
// entry's induced rows, and one state array; the grid returns positions, and
// the peel touches nothing a circle's worth of cells away from the rest of
// what it touches. The restricted k-core peel is the kernel every k-core
// community search shares ("A Survey of Community Search Over Big Graphs"),
// and a cold AppAcc spends ~85 % of its time in it.

// gridTargetPerCell is the bucket occupancy the per-query grid aims for; ~4
// keeps range queries touching a handful of cells.
const gridTargetPerCell = 4

// workingSet is the grid over the vertex set the query in flight cuts its
// circles from and, when peelable, that set's induced subgraph in positions.
// It is written by indexWorkingSet and read-only until the next one, so the
// workers of a parallel scan read their parent's through a pointer.
type workingSet struct {
	grid spatial.SubGrid

	// peelable is set for a k-core query: the rest is then valid. Row p of (off, adj) lists the positions
	// of the neighbours of grid.IDs()[p] inside the working set, in ascending
	// global id — the order of the entry's induced rows and of the graph's
	// own, so a BFS over these rows visits what one over those would.
	peelable bool
	off, adj []int32
	posOf    []int32 // by entry-local id; -1 outside the working set
	qPos     int32
}

// posPeeler is the scratch of the position peel. It belongs to one Searcher:
// the workers of a parallel scan share a workingSet and nothing else.
type posPeeler struct {
	// state[p] == epoch while p is in the gathered set and not peeled,
	// epoch+1 once the final BFS has reached it; any other value is a vertex
	// this probe never gathered. One array where a peeler over ids keeps an
	// alive marker and a visited marker.
	state []uint32
	epoch uint32
	deg   []int32   // degree among the living, by position
	gath  []int32   // the gathered positions
	queue []int32   // the peel's queue, then the BFS's: the answer in positions
	out   []graph.V // the answer
}

// advance starts a probe over a working set of n positions and returns its
// epoch.
func (p *posPeeler) advance(n int) uint32 {
	if cap(p.state) < n {
		p.state = make([]uint32, n)
		p.deg = make([]int32, n)
		p.queue = make([]int32, 0, n)
		p.epoch = 0
	}
	if p.epoch > math.MaxUint32-4 { // wrapped: clear for real, once every 2^31 probes
		clear(p.state[:cap(p.state)])
		p.epoch = 0
	}
	p.epoch += 2
	return p.epoch
}

// indexWorkingSet makes vs, which must hold q, the working set of the query
// in flight: the grid is rebuilt over it and, for a k-core query, so is the
// position CSR — from the cache entry's induced rows, which already hold no
// edge that leaves the community.
func (s *Searcher) indexWorkingSet(vs []graph.V, q graph.V) {
	ws := &s.ws
	ws.grid.Build(s.g, vs, gridTargetPerCell)
	if s.structure != StructureKCore {
		return
	}
	e := s.curEntry
	ids := ws.grid.IDs()
	n := len(ids)
	posOf := slices.Grow(ws.posOf[:0], len(e.members))[:len(e.members)]
	for i := range posOf {
		posOf[i] = -1
	}
	for p, v := range ids {
		posOf[s.localOf[v]] = int32(p)
	}
	// Sized exactly: one pass counts the arcs that stay inside the working
	// set, the next writes them.
	off := slices.Grow(ws.off[:0], n+1)[:n+1]
	total := int32(0)
	for p, v := range ids {
		off[p] = total
		lv := s.localOf[v]
		for _, lu := range e.adjLocal[e.adjOff[lv]:e.adjOff[lv+1]] {
			if posOf[lu] >= 0 {
				total++
			}
		}
	}
	off[n] = total
	adj := slices.Grow(ws.adj[:0], int(total))
	for _, v := range ids {
		lv := s.localOf[v]
		for _, lu := range e.adjLocal[e.adjOff[lv]:e.adjOff[lv+1]] {
			if pu := posOf[lu]; pu >= 0 {
				adj = append(adj, pu)
			}
		}
	}
	ws.posOf, ws.off, ws.adj = posOf, off, adj
	ws.qPos = posOf[s.localOf[q]]
	ws.peelable = true
}

// workingSet returns the index circles are cut from: the searcher's own or,
// on a worker inside a parallel scan, the dispatching searcher's.
func (s *Searcher) workingSet() *workingSet {
	if s.wsFrom != nil {
		return s.wsFrom
	}
	return &s.ws
}

// circleFeasible returns the connected k-structure containing q among the
// working set's vertices inside cc, or nil; the slice is scratch-owned. It
// is one feasibility check in Stats whichever way it is answered, and the
// member sequence is the one kcore.Peeler.KCoreWithin returns for the same
// vertices: a BFS from q over rows in ascending neighbour id.
//
// from, when not nil, is holdAnswer of an earlier probe whose circle contained
// cc: the vertices are then taken from it instead of from the grid. That
// changes nothing — with A the working set inside cc and C the earlier
// answer, q's component D of the k-core of G[A] lies inside C (the peel is
// monotone in the vertex set) and inside A, so it is a connected k-core of
// G[A∩C]; and A∩C ⊆ A bounds the component from above. A vertex of D has no
// surviving neighbour outside D on either side, so the BFS emits the same
// sequence.
//
// k-truss and k-clique queries gather the ids and go through feasible.
func (s *Searcher) circleFeasible(cc geom.Circle, q graph.V, k int, from []int32) []graph.V {
	ws := s.workingSet()
	if !ws.peelable {
		s.vertBuf = ws.grid.InCircle(cc, s.vertBuf[:0])
		return s.feasible(s.vertBuf, q, k)
	}
	s.stats.FeasibilityChecks++
	// The peel deletes a q that is outside the circle or has fewer than k
	// neighbours inside it; both show before anything is gathered.
	d := ws.grid.Disk(cc)
	if !d.Holds(ws.qPos) {
		return nil
	}
	need := k
	for _, u := range ws.adj[ws.off[ws.qPos]:ws.off[ws.qPos+1]] {
		if need == 0 {
			break
		}
		if d.Holds(u) {
			need--
		}
	}
	if need > 0 {
		return nil
	}
	if from == nil {
		s.pk.gath = d.Positions(s.pk.gath[:0])
	} else {
		s.pk.gath = d.Of(from, s.pk.gath[:0])
	}
	return s.peel(ws, s.pk.gath, k)
}

// subsetFeasible is the peel's door for a subset of the working set given as
// vertex ids (the lens search, the brute-force diameter oracle).
func (s *Searcher) subsetFeasible(S []graph.V, k int) []graph.V {
	ws := &s.ws
	gath := s.pk.gath[:0]
	for _, v := range S {
		gath = append(gath, ws.posOf[s.localOf[v]])
	}
	s.pk.gath = gath
	return s.peel(ws, gath, k)
}

// holdAnswer keeps the positions of the answer the last circleFeasible
// returned (in anchorPos, until the next holdAnswer) and returns them — what
// a later probe of a smaller concentric circle passes as from. It returns nil
// when answers are not computed in positions, which sends those probes to
// the grid.
func (s *Searcher) holdAnswer() []int32 {
	if !s.workingSet().peelable {
		return nil
	}
	s.anchorPos = append(s.anchorPos[:0], s.pk.queue...)
	return s.anchorPos
}

// peel returns the connected k-core containing q of the subgraph induced by
// the gathered positions, as vertex ids in BFS order from q, or nil.
func (s *Searcher) peel(ws *workingSet, gathered []int32, k int) []graph.V {
	pk := &s.pk
	alive := pk.advance(ws.grid.Len())
	state, deg := pk.state[:ws.grid.Len()], pk.deg
	off, adj, qPos, kk := ws.off, ws.adj, ws.qPos, int32(k)
	for _, p := range gathered {
		state[p] = alive
	}
	if state[qPos] != alive {
		return nil
	}
	queue := pk.queue[:0]
	for _, p := range gathered {
		d := int32(0)
		for _, u := range adj[off[p]:off[p+1]] {
			if state[u] == alive {
				d++
			}
		}
		deg[p] = d
		if d < kk {
			queue = append(queue, p)
		}
	}
	// Peel positions whose degree among the living dropped below k.
	for head := 0; head < len(queue); head++ {
		p := queue[head]
		if state[p] != alive {
			continue
		}
		state[p] = 0
		if p == qPos {
			return nil
		}
		for _, u := range adj[off[p]:off[p+1]] {
			if state[u] != alive {
				continue
			}
			deg[u]--
			if deg[u] == kk-1 {
				queue = append(queue, u)
			}
		}
	}
	// q's component of the survivors (each keeps ≥ k surviving neighbours,
	// all in its own component, so the component has minimum degree ≥ k).
	ids := ws.grid.IDs()
	out := slices.Grow(pk.out[:0], len(gathered))
	state[qPos] = alive + 1
	queue = append(queue[:0], qPos)
	for head := 0; head < len(queue); head++ {
		p := queue[head]
		out = append(out, ids[p])
		for _, u := range adj[off[p]:off[p+1]] {
			if state[u] == alive {
				state[u] = alive + 1
				queue = append(queue, u)
			}
		}
	}
	pk.queue, pk.out = queue, out
	return out
}
